// Streaming: the online entity-resolution loop on a real-benchmark-shaped
// dataset. A model is trained once on the committed Leipzig DBLP-Scholar
// fixture, then the Scholar records are ingested ONE AT A TIME through
// POST /v1/records — no batch rebuild anywhere — and every DBLP record is
// resolved live through POST /v1/resolve against whatever has arrived so
// far. At the end one matched record is deleted and its probe re-resolved,
// showing deletes take effect immediately — and a final act stands the
// same service up on a durable (WAL + snapshot) store, shuts it down
// cleanly, and "restarts" it on the same directory: the records come back
// from disk with zero re-ingest and a probe resolves identically.
//
//	go run ./examples/streaming
//
// Flags point at the three Leipzig CSV files; the defaults use the
// committed fixture, so the example runs offline from the repository root.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"reflect"
	"time"

	learnrisk "repro"
	"repro/internal/server"
)

func main() {
	left := flag.String("left", "testdata/leipzig/DBLP-small.csv", "Leipzig left-table CSV (DBLP)")
	right := flag.String("right", "testdata/leipzig/Scholar-small.csv", "Leipzig right-table CSV (Scholar)")
	mapping := flag.String("mapping", "testdata/leipzig/mapping-small.csv", "Leipzig perfect-mapping CSV")
	benchmark := flag.String("benchmark", "dblp-scholar", "Leipzig benchmark layout: dblp-scholar|abt-buy|amazon-google")
	k := flag.Int("k", 3, "matches to request per probe")
	flag.Parse()

	w, err := learnrisk.LoadLeipzig(*benchmark, *left, *right, *mapping)
	if err != nil {
		log.Fatal(err)
	}
	if w.NumLeftRecords() == 0 || w.NumRightRecords() == 0 {
		log.Fatalf("nothing to stream: %d left / %d right records in the supplied CSVs", w.NumLeftRecords(), w.NumRightRecords())
	}
	model, err := learnrisk.Train(context.Background(), w, learnrisk.Options{
		RiskEpochs: 100, ClassifierEpochs: 10, Seed: 13,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained on %s: %d pairs, %d risk features, fingerprint %.12s\n",
		w.Name(), w.Size(), model.NumFeatures(), model.Fingerprint())

	// Stand the service up on a loopback port — the same server cmd/serve
	// runs; the streaming client below is ordinary HTTP.
	srv := server.New(model, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving on %s\n", base)

	// Ingest the Scholar table one record at a time, remembering which
	// store ID landed on which entity.
	entityOf := make(map[uint64]string)
	start := time.Now()
	for i := 0; i < w.NumRightRecords(); i++ {
		values, entity := w.RightRecordAt(i)
		var resp server.RecordResponse
		if err := post(base+"/v1/records", server.RecordRequest{Values: values}, &resp); err != nil {
			log.Fatal(err)
		}
		entityOf[resp.ID] = entity
	}
	fmt.Printf("streamed %d Scholar records in %v (%v/record)\n",
		w.NumRightRecords(), time.Since(start).Round(time.Millisecond),
		(time.Since(start) / time.Duration(w.NumRightRecords())).Round(time.Microsecond))

	// Resolve every DBLP record live against the warm index and check the
	// top match against the benchmark's ground-truth mapping.
	var hits, probesWithTruth int
	var firstHitID uint64
	var firstHitProbe []string
	start = time.Now()
	for i := 0; i < w.NumLeftRecords(); i++ {
		probe, entity := w.LeftRecordAt(i)
		var resp server.ResolveResponse
		if err := post(base+"/v1/resolve", server.ResolveRequest{Values: probe, K: *k}, &resp); err != nil {
			log.Fatal(err)
		}
		if entity == "" {
			continue
		}
		probesWithTruth++
		if len(resp.Matches) > 0 && entityOf[resp.Matches[0].ID] == entity {
			if hits == 0 {
				firstHitID, firstHitProbe = resp.Matches[0].ID, probe
			}
			hits++
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("resolved %d DBLP probes in %v (%v/probe): top-1 found the true Scholar record for %d/%d\n",
		w.NumLeftRecords(), elapsed.Round(time.Millisecond),
		(elapsed / time.Duration(w.NumLeftRecords())).Round(time.Microsecond),
		hits, probesWithTruth)

	if hits > 0 {
		// Deletes are immediate: drop the first true match and re-resolve
		// its probe — the deleted record must be gone from the results.
		req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/records/%d", base, firstHitID), nil)
		dresp, err := http.DefaultClient.Do(req)
		if err != nil {
			log.Fatal(err)
		}
		dresp.Body.Close()
		var resp server.ResolveResponse
		if err := post(base+"/v1/resolve", server.ResolveRequest{Values: firstHitProbe, K: *k}, &resp); err != nil {
			log.Fatal(err)
		}
		for _, m := range resp.Matches {
			if m.ID == firstHitID {
				log.Fatalf("deleted record %d still resolves", firstHitID)
			}
		}
		fmt.Printf("deleted record %d; its probe now resolves to %d other candidate(s)\n", firstHitID, len(resp.Matches))
	}

	st := srv.Store().PartitionStats()[0] // the default server's one partition
	fmt.Printf("index: %d live records, %d tokens, %d tombstones, %d compactions, %.1f mean candidates/probe\n",
		st.Live, st.Tokens, st.Tombstones, st.Compactions,
		float64(st.Candidates)/float64(max(st.Probes, 1)))

	if err := durableRestartDemo(w, model, *k); err != nil {
		log.Fatal(err)
	}
}

// durableRestartDemo is the crash-safety act: the same HTTP service backed
// by a durable match store (what cmd/serve -data-dir runs), shut down
// cleanly and restarted on the same directory — the records are served
// again without a single re-ingest and a probe resolves identically.
func durableRestartDemo(w *learnrisk.Workload, model *learnrisk.Model, k int) error {
	dir, err := os.MkdirTemp("", "streaming-durable-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	n := min(w.NumRightRecords(), 60)
	probe, _ := w.LeftRecordAt(0)

	// First life: ingest n records durably, resolve once, shut down clean.
	var before server.ResolveResponse
	err = withDurableService(model, dir, func(base string) error {
		for i := 0; i < n; i++ {
			values, _ := w.RightRecordAt(i)
			var resp server.RecordResponse
			if err := post(base+"/v1/records", server.RecordRequest{Values: values}, &resp); err != nil {
				return err
			}
		}
		return post(base+"/v1/resolve", server.ResolveRequest{Values: probe, K: k}, &before)
	})
	if err != nil {
		return err
	}

	// Second life: same directory, no ingest — replay serves the records.
	var after server.ResolveResponse
	err = withDurableService(model, dir, func(base string) error {
		return post(base+"/v1/resolve", server.ResolveRequest{Values: probe, K: k}, &after)
	})
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(before, after) {
		return fmt.Errorf("restart changed the resolve answer:\n  before %+v\n  after  %+v", before, after)
	}
	fmt.Printf("durable restart: %d records came back from %s with zero re-ingest; probe resolves identically (%d matches)\n",
		n, dir, len(after.Matches))
	return nil
}

// withDurableService runs fn against a freshly-started HTTP service backed
// by a durable store in dir, then tears everything down in the graceful
// shutdown order (HTTP, then the store, sealing a final snapshot).
func withDurableService(model *learnrisk.Model, dir string, fn func(base string) error) error {
	d, err := model.OpenDurablePartitionedMatchStore(dir, 1, learnrisk.MatchConfig{}, learnrisk.DurableMatchOptions{}, nil)
	if err != nil {
		return err
	}
	srv := server.New(model, server.Config{})
	if err := srv.InstallStore(d); err != nil {
		d.Close()
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer func() {
		httpSrv.Close()
		d.Close()
	}()
	return fn("http://" + ln.Addr().String())
}

func post(url string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("%s: %d %s", url, resp.StatusCode, e.Error)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
