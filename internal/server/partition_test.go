package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"sync"
	"testing"
)

// TestPartitionedServerMatchesFlat drives the same ingest + delete +
// resolve traffic through a 1-partition server (the flat store) and a
// 4-partition server and demands identical resolve responses: the
// partition count is a deployment knob, not a semantics change.
func TestPartitionedServerMatchesFlat(t *testing.T) {
	w, _, flatSrv, flatTS := newTestServer(t, Config{Partitions: 1})
	_, _, partSrv, partTS := newTestServer(t, Config{Partitions: 4})

	n := w.NumRightRecords()
	if n > 60 {
		n = 60
	}
	for i := 0; i < n; i++ {
		vals, _ := w.RightRecordAt(i)
		fid := addRecord(t, flatTS.URL, vals)
		pid := addRecord(t, partTS.URL, vals)
		if fid != pid {
			t.Fatalf("record %d: flat ID %d, partitioned ID %d", i, fid, pid)
		}
	}
	for _, id := range []uint64{2, 9, 17} {
		if code := deleteRecord(t, flatTS.URL, id); code != http.StatusOK {
			t.Fatalf("flat DELETE %d = %d", id, code)
		}
		if code := deleteRecord(t, partTS.URL, id); code != http.StatusOK {
			t.Fatalf("partitioned DELETE %d = %d", id, code)
		}
	}
	if flatSrv.Live() != partSrv.Live() {
		t.Fatalf("live diverged: flat %d, partitioned %d", flatSrv.Live(), partSrv.Live())
	}
	for i := 0; i < 12; i++ {
		probe, _ := w.RightRecordAt(i * 4)
		var flat, part ResolveResponse
		if code := postJSON(t, flatTS.URL+"/v1/resolve", ResolveRequest{Values: probe, K: 5}, &flat); code != http.StatusOK {
			t.Fatalf("flat resolve %d = %d", i, code)
		}
		if code := postJSON(t, partTS.URL+"/v1/resolve", ResolveRequest{Values: probe, K: 5}, &part); code != http.StatusOK {
			t.Fatalf("partitioned resolve %d = %d", i, code)
		}
		if !reflect.DeepEqual(flat, part) {
			t.Fatalf("probe %d diverged\n1 partition:  %+v\n4 partitions: %+v", i, flat, part)
		}
	}
	if st := partSrv.Store().Stats(); st.Probes == 0 || st.Partitions != 4 {
		t.Errorf("4-partition store served %d scatter-gather probes over %d partitions", st.Probes, st.Partitions)
	}
}

// TestIngestBackpressure pins the bounded ingest queue deterministically:
// with every MaxPending slot held, a mutation answers 429 with a
// Retry-After hint; with a slot free it goes through. Resolves are never
// shed.
func TestIngestBackpressure(t *testing.T) {
	w, _, srv, ts := newTestServer(t, Config{Partitions: 2, MaxPending: 2})
	vals, _ := w.RightRecordAt(0)
	addRecord(t, ts.URL, vals)

	// Occupy the whole queue from outside, as in-flight mutations would.
	srv.ingestSem <- struct{}{}
	srv.ingestSem <- struct{}{}

	body, err := json.Marshal(RecordRequest{Values: vals})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/records", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("add with full queue = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After hint")
	}
	if _, err := srv.DeleteRecord(0); !errors.Is(err, ErrBackpressure) {
		t.Errorf("delete with full queue = %v, want ErrBackpressure", err)
	}

	// Back-pressure sheds writes, not reads: resolves still answer.
	var rr ResolveResponse
	if code := postJSON(t, ts.URL+"/v1/resolve", ResolveRequest{Values: vals, K: 3}, &rr); code != http.StatusOK {
		t.Fatalf("resolve with full ingest queue = %d, want 200", code)
	}

	<-srv.ingestSem
	addRecord(t, ts.URL, vals) // a freed slot admits the next mutation
	<-srv.ingestSem
}

// TestPartitionReadyzAggregation covers satellite readiness: one replaying
// partition keeps /readyz at 503 and the body names it in the
// per-partition reason list.
func TestPartitionReadyzAggregation(t *testing.T) {
	_, _, srv, ts := newTestServer(t, Config{Partitions: 3})
	get := func(out any) int {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode
	}

	var ready map[string]any
	if code := get(&ready); code != http.StatusOK {
		t.Fatalf("fresh partitioned /readyz = %d, want 200", code)
	}
	if ready["partitions"] != float64(3) {
		t.Errorf("ready body partitions = %v, want 3", ready["partitions"])
	}

	srv.SetPartitionNotReady(1, "replaying: log 3/9")
	var starting struct {
		Status     string   `json:"status"`
		Reason     string   `json:"reason"`
		Partitions []string `json:"partitions"`
	}
	if code := get(&starting); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with a replaying partition = %d, want 503", code)
	}
	if starting.Reason != "partition 1: replaying: log 3/9" {
		t.Errorf("reason = %q", starting.Reason)
	}
	if want := []string{"", "replaying: log 3/9", ""}; !reflect.DeepEqual(starting.Partitions, want) {
		t.Errorf("partition reasons = %v, want %v", starting.Partitions, want)
	}

	srv.SetPartitionReady(1)
	if code := get(&ready); code != http.StatusOK {
		t.Errorf("/readyz after partition ready = %d, want 200", code)
	}
}

// TestPartitionedDurableServer covers the durable partitioned loop: the
// pending gate refuses mutations, an installed store serves them, a
// mid-load snapshot drops zero in-flight resolves, and a restart on the
// same dir serves identical answers.
func TestPartitionedDurableServer(t *testing.T) {
	dir := t.TempDir()
	w, srv, ts, _ := newDurableServer(t, dir, 3)

	// Before install the pending gate refuses; pin it via a second server.
	{
		_, m := trainedModel(t, 7)
		gated := New(m, Config{Partitions: 3})
		gated.SetDurablePending()
		if _, err := gated.AddRecord([]string{"a", "b", "c", "d"}); !errors.Is(err, ErrStoreLoading) {
			t.Errorf("add while replaying = %v, want ErrStoreLoading", err)
		}
	}

	n := w.NumRightRecords()
	if n > 48 {
		n = 48
	}
	for i := 0; i < n; i++ {
		vals, _ := w.RightRecordAt(i)
		addRecord(t, ts.URL, vals)
	}
	for _, id := range []uint64{1, 7, 20} {
		if code := deleteRecord(t, ts.URL, id); code != http.StatusOK {
			t.Fatalf("DELETE %d = %d", id, code)
		}
	}

	// Mid-load snapshot: resolvers hammer every partition while the admin
	// endpoint cuts a snapshot of each; zero resolves may fail or drop.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			probe, _ := w.RightRecordAt(g)
			for {
				select {
				case <-stop:
					return
				default:
				}
				var rr ResolveResponse
				if code := postJSON(t, ts.URL+"/v1/resolve", ResolveRequest{Values: probe, K: 5}, &rr); code != http.StatusOK {
					errs <- errors.New("resolve dropped during snapshot")
					return
				}
			}
		}(g)
	}
	var snap SnapshotResponse
	if code := postJSON(t, ts.URL+"/v1/snapshot", struct{}{}, &snap); code != http.StatusOK {
		t.Fatalf("POST /v1/snapshot = %d", code)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if snap.Records != srv.Live() {
		t.Errorf("snapshot covered %d records, live is %d", snap.Records, srv.Live())
	}
	if len(snap.Partitions) != 3 {
		t.Fatalf("snapshot reported %d partitions, want 3", len(snap.Partitions))
	}
	sum := 0
	for _, p := range snap.Partitions {
		sum += p.Records
	}
	if sum != snap.Records {
		t.Errorf("per-partition records sum to %d, aggregate says %d", sum, snap.Records)
	}

	// Capture answers, restart on the same dir, demand identical answers.
	probes := make([][]string, 5)
	want := make([]ResolveResponse, len(probes))
	for i := range probes {
		probes[i], _ = w.RightRecordAt(3 + i*5)
		if code := postJSON(t, ts.URL+"/v1/resolve", ResolveRequest{Values: probes[i], K: 5}, &want[i]); code != http.StatusOK {
			t.Fatalf("resolve %d = %d", i, code)
		}
	}
	liveBefore := srv.Live()
	ts.Close()

	_, srv2, ts2, _ := newDurableServer(t, dir, 3)
	if srv2.Live() != liveBefore {
		t.Fatalf("restart serves %d live records, want %d", srv2.Live(), liveBefore)
	}
	for i, p := range probes {
		var got ResolveResponse
		if code := postJSON(t, ts2.URL+"/v1/resolve", ResolveRequest{Values: p, K: 5}, &got); code != http.StatusOK {
			t.Fatalf("restarted resolve %d = %d", i, code)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("probe %d diverged across restart\ngot:  %+v\nwant: %+v", i, got, want[i])
		}
	}
}

// TestPartitionedSchemaSwap pins swap semantics in partitioned mode: a
// forced cross-schema swap rebuilds the in-memory partitioned store for
// the new arity, and is refused outright when the partitions are durable.
func TestPartitionedSchemaSwap(t *testing.T) {
	w, _, srv, ts := newTestServer(t, Config{Partitions: 2})
	for i := 0; i < 8; i++ {
		vals, _ := w.RightRecordAt(i)
		addRecord(t, ts.URL, vals)
	}
	before := srv.Store()
	_, ab := trainedModelAB(t)
	if err := srv.Swap(ab, false); err == nil {
		t.Fatal("cross-schema swap accepted without force")
	}
	if err := srv.Swap(ab, true); err != nil {
		t.Fatal(err)
	}
	if srv.Store() == before {
		t.Fatal("forced schema-changing swap kept the old partitioned store")
	}
	if got := srv.Store().Arity(); got != len(ab.Schema()) {
		t.Errorf("rebuilt partitioned store arity = %d, want %d", got, len(ab.Schema()))
	}
	if srv.Live() != 0 {
		t.Errorf("rebuilt partitioned store live = %d, want 0", srv.Live())
	}

	_, durSrv, _, _ := newDurableServer(t, t.TempDir(), 2)
	if err := durSrv.Swap(ab, true); !errors.Is(err, ErrDurableSchemaSwap) {
		t.Errorf("forced cross-schema swap on durable partitions = %v, want ErrDurableSchemaSwap", err)
	}
}
