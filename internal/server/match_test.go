package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
)

// addRecord posts one record and returns its assigned ID.
func addRecord(t *testing.T, base string, values []string) uint64 {
	t.Helper()
	var resp RecordResponse
	if code := postJSON(t, base+"/v1/records", RecordRequest{Values: values}, &resp); code != http.StatusOK {
		t.Fatalf("POST /v1/records = %d", code)
	}
	return resp.ID
}

func deleteRecord(t *testing.T, base string, id uint64) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/records/%d", base, id), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestRecordsAndResolveEndpoints drives the full online loop over HTTP:
// ingest records, resolve a probe, delete the top match, resolve again.
func TestRecordsAndResolveEndpoints(t *testing.T) {
	w, m, srv, ts := newTestServer(t, Config{})
	_ = m

	// Ingest the workload's right-table records through the API.
	n := w.NumRightRecords()
	if n > 60 {
		n = 60
	}
	ids := make([]uint64, n)
	for i := 0; i < n; i++ {
		vals, _ := w.RightRecordAt(i)
		ids[i] = addRecord(t, ts.URL, vals)
	}
	if live := srv.Live(); live != n {
		t.Fatalf("store live = %d after %d adds", live, n)
	}

	// Resolve a probe that has at least one candidate: right record 0
	// probed against the store must at minimum find itself.
	probe, _ := w.RightRecordAt(0)
	var rr ResolveResponse
	if code := postJSON(t, ts.URL+"/v1/resolve", ResolveRequest{Values: probe, K: 5}, &rr); code != http.StatusOK {
		t.Fatalf("POST /v1/resolve = %d", code)
	}
	if len(rr.Matches) == 0 {
		t.Fatal("self-probe resolved to nothing")
	}
	if rr.ModelFingerprint != srv.Model().Fingerprint() {
		t.Errorf("resolve fingerprint = %q", rr.ModelFingerprint)
	}
	if rr.Matches[0].ID != ids[0] {
		t.Errorf("self-probe top match = record %d, want %d (itself)", rr.Matches[0].ID, ids[0])
	}
	for i := 1; i < len(rr.Matches); i++ {
		if rr.Matches[i].Prob > rr.Matches[i-1].Prob {
			t.Errorf("matches unsorted: %v", rr.Matches)
		}
	}
	if len(rr.Matches[0].Values) != len(probe) {
		t.Errorf("match values arity %d, want %d", len(rr.Matches[0].Values), len(probe))
	}
	if srv.Resolves() != 1 {
		t.Errorf("Resolves() = %d, want 1", srv.Resolves())
	}

	// Delete the top match; it must drop out of the next resolve.
	if code := deleteRecord(t, ts.URL, ids[0]); code != http.StatusOK {
		t.Fatalf("DELETE = %d", code)
	}
	if code := deleteRecord(t, ts.URL, ids[0]); code != http.StatusNotFound {
		t.Errorf("double DELETE = %d, want 404", code)
	}
	var rr2 ResolveResponse
	if code := postJSON(t, ts.URL+"/v1/resolve", ResolveRequest{Values: probe, K: 5}, &rr2); code != http.StatusOK {
		t.Fatalf("POST /v1/resolve after delete = %d", code)
	}
	for _, mt := range rr2.Matches {
		if mt.ID == ids[0] {
			t.Errorf("deleted record %d still resolves", ids[0])
		}
	}
}

func TestRecordEndpointErrors(t *testing.T) {
	_, _, _, ts := newTestServer(t, Config{})
	var out map[string]any

	// Wrong arity is the client's fault.
	if code := postJSON(t, ts.URL+"/v1/records", RecordRequest{Values: []string{"just one"}}, &out); code != http.StatusBadRequest {
		t.Errorf("short record = %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/v1/resolve", ResolveRequest{Values: []string{"just one"}}, &out); code != http.StatusBadRequest {
		t.Errorf("short probe = %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/v1/resolve", ResolveRequest{Values: []string{"a", "b", "c", "d"}, K: -2}, &out); code != http.StatusBadRequest {
		t.Errorf("negative k = %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/v1/resolve", ResolveRequest{Values: []string{"a", "b", "c", "d"}, K: maxResolveK + 1}, &out); code != http.StatusBadRequest {
		t.Errorf("huge k = %d, want 400", code)
	}
	if code := deleteRecord(t, ts.URL, 12345); code != http.StatusNotFound {
		t.Errorf("DELETE unknown id = %d, want 404", code)
	}
	resp, err := http.DefaultClient.Do(mustRequest(t, http.MethodDelete, ts.URL+"/v1/records/notanumber"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("DELETE bad id = %d, want 400", resp.StatusCode)
	}
}

func mustRequest(t *testing.T, method, url string) *http.Request {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// TestReadyzGate covers the liveness/readiness split: /healthz stays 200
// throughout, /readyz returns 503 with the reason until SetReady.
func TestReadyzGate(t *testing.T) {
	_, _, srv, ts := newTestServer(t, Config{})
	get := func(path string, out any) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatalf("decoding %s response: %v", path, err)
			}
		}
		return resp.StatusCode
	}

	if code := get("/readyz", nil); code != http.StatusOK {
		t.Errorf("fresh server /readyz = %d, want 200", code)
	}
	srv.SetNotReady("warm-loading 10000 records")
	var body map[string]string
	if code := get("/readyz", &body); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz while warming = %d, want 503", code)
	}
	if body["reason"] != "warm-loading 10000 records" {
		t.Errorf("readyz reason = %q", body["reason"])
	}
	if code := get("/healthz", nil); code != http.StatusOK {
		t.Errorf("/healthz while warming = %d, want 200 (liveness is not readiness)", code)
	}
	srv.SetReady()
	var ready map[string]any
	if code := get("/readyz", &ready); code != http.StatusOK {
		t.Errorf("/readyz after SetReady = %d, want 200", code)
	}
	if ready["status"] != "ready" {
		t.Errorf("readyz body = %v", ready)
	}
}

// TestStoreSurvivesSameFingerprintReload pins the hot-swap contract: a
// reload of an artifact with the same schema fingerprint keeps the indexed
// records; a forced swap to a different schema replaces the store.
func TestStoreSurvivesSameFingerprintReload(t *testing.T) {
	w, m, srv, ts := newTestServer(t, Config{})
	artifact := saveArtifactIn(t, t.TempDir(), "model.json", m)
	srv.cfg.ModelPath = artifact

	for i := 0; i < 10; i++ {
		vals, _ := w.RightRecordAt(i)
		addRecord(t, ts.URL, vals)
	}
	before := srv.Store()
	if before.Len() != 10 {
		t.Fatalf("live = %d", before.Len())
	}

	// Same fingerprint: the store pointer must survive the swap.
	if _, _, err := srv.Reload(artifact, false); err != nil {
		t.Fatal(err)
	}
	if srv.Store() != before {
		t.Fatal("same-fingerprint reload replaced the match store")
	}
	if srv.Live() != 10 {
		t.Fatalf("records lost across same-fingerprint reload: live = %d", srv.Live())
	}

	// Different schema (AB: 3 attrs vs DS: 4): refused without force, and
	// with force the store is rebuilt empty for the new arity.
	_, ab := trainedModelAB(t)
	if err := srv.Swap(ab, false); err == nil {
		t.Fatal("cross-schema swap accepted without force")
	}
	if err := srv.Swap(ab, true); err != nil {
		t.Fatal(err)
	}
	if srv.Store() == before {
		t.Fatal("forced schema-changing swap kept the old store")
	}
	if srv.Live() != 0 {
		t.Errorf("new store live = %d, want 0", srv.Live())
	}
	if srv.Store().Arity() != len(ab.Schema()) {
		t.Errorf("new store arity = %d, want %d", srv.Store().Arity(), len(ab.Schema()))
	}
}
