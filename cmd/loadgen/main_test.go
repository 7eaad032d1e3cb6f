package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

func TestParseSteps(t *testing.T) {
	got, err := parseSteps(" 1, 2,8 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 8 {
		t.Fatalf("parseSteps = %v", got)
	}
	for _, bad := range []string{"", "0", "-3", "a,b", "4,,8"} {
		if _, err := parseSteps(bad); err == nil {
			t.Errorf("parseSteps(%q) accepted", bad)
		}
	}
}

func TestPercentile(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	sorted := []time.Duration{ms(1), ms(2), ms(3), ms(4), ms(5), ms(6), ms(7), ms(8), ms(9), ms(10)}
	for _, tc := range []struct {
		p    int
		want time.Duration
	}{
		{50, ms(5)}, {95, ms(10)}, {99, ms(10)}, {100, ms(10)}, {1, ms(1)},
	} {
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Errorf("p%d = %s, want %s", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("empty p99 = %s, want 0", got)
	}
	if got := meanDuration([]time.Duration{ms(2), ms(4)}); got != ms(3) {
		t.Errorf("mean = %s, want 3ms", got)
	}
}

// stubServer fakes the three endpoints loadgen drives, optionally
// refusing every throttleEvery'th mutation with 429.
func stubServer(t *testing.T, throttleEvery int64) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var nextID, muts atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/records", func(w http.ResponseWriter, r *http.Request) {
		if n := muts.Add(1); throttleEvery > 0 && n%throttleEvery == 0 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		json.NewEncoder(w).Encode(server.RecordResponse{ID: uint64(nextID.Add(1) - 1)})
	})
	mux.HandleFunc("DELETE /v1/records/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseUint(r.PathValue("id"), 10, 64)
		if id%3 == 0 {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		json.NewEncoder(w).Encode(server.DeleteResponse{ID: id, Deleted: true})
	})
	var resolves atomic.Int64
	mux.HandleFunc("POST /v1/resolve", func(w http.ResponseWriter, r *http.Request) {
		resolves.Add(1)
		json.NewEncoder(w).Encode(server.ResolveResponse{})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, &resolves
}

// TestRunLoadClosedLoop drives the full loop against a stub: every op kind
// occurs, latencies produce percentiles, throttles are counted apart from
// failures.
func TestRunLoadClosedLoop(t *testing.T) {
	ts, resolves := stubServer(t, 5)
	pay := &payloads{vals: [][]string{{"a", "b"}, {"c", "d"}, {"e", "f"}}, n: 3}
	results, err := runLoad(loadConfig{
		Base:    ts.URL,
		Pay:     pay,
		Steps:   []int{1, 3},
		StepDur: 150 * time.Millisecond,
		K:       3,
		AddFrac: 0.3,
		DelFrac: 0.2,
		Preload: 10,
		Seed:    42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d step results, want 2", len(results))
	}
	for _, r := range results {
		if r.Resolves == 0 || r.Adds == 0 || r.Deletes == 0 {
			t.Errorf("c=%d: op mix incomplete: %+v", r.Concurrency, r)
		}
		if r.Throttled == 0 {
			t.Errorf("c=%d: stub throttles every 5th mutation but Throttled = 0", r.Concurrency)
		}
		if r.Failed != 0 {
			t.Errorf("c=%d: Failed = %d (429 and delete-404 must not count)", r.Concurrency, r.Failed)
		}
		if r.P50 <= 0 || r.P99 < r.P95 || r.P95 < r.P50 {
			t.Errorf("c=%d: percentiles inconsistent: p50=%s p95=%s p99=%s", r.Concurrency, r.P50, r.P95, r.P99)
		}
		if r.Ops != r.Resolves+r.Adds+r.Deletes+r.Throttled {
			t.Errorf("c=%d: ops accounting off: %+v", r.Concurrency, r)
		}
		if r.OpsPerSec() <= 0 || r.ResolvesPerSec() <= 0 {
			t.Errorf("c=%d: zero throughput: %+v", r.Concurrency, r)
		}
	}
	if results[1].Concurrency != 3 {
		t.Errorf("second step concurrency = %d, want 3", results[1].Concurrency)
	}
	if resolves.Load() == 0 {
		t.Error("stub saw no resolves")
	}
}

// TestScrapeServerStages pins the /metrics round trip: Prometheus text
// parses into flat samples, the srvStages selection lands in the step's
// Server map, and targets without /metrics degrade to nil.
func TestScrapeServerStages(t *testing.T) {
	const body = `# TYPE stage_scatter_ns summary
stage_scatter_ns{quantile="0.5"} 100
stage_scatter_ns{quantile="0.99"} 4200
stage_scatter_ns_sum 9000
request_resolve_ns{quantile="0.99"} 8_bad_value
stage_probe_tokenize_ns{quantile="0.99"} 77

stage_topk_merge_ns{quantile="0.99"} 3.5e2
`
	samples, err := parsePromText(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if got := samples[`stage_scatter_ns{quantile="0.99"}`]; got != 4200 {
		t.Errorf("scatter p99 = %v, want 4200", got)
	}
	if got := samples[`stage_topk_merge_ns{quantile="0.99"}`]; got != 350 {
		t.Errorf("scientific notation parsed as %v, want 350", got)
	}
	if _, ok := samples[`request_resolve_ns{quantile="0.99"}`]; ok {
		t.Error("unparseable value was kept")
	}

	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, body)
	}))
	defer ts.Close()
	got := scrapeServerStages(ts.Client(), ts.URL)
	if got["srv_scatter_p99_ns"] != 4200 || got["srv_probe_tokenize_p99_ns"] != 77 {
		t.Errorf("scrape selection = %v", got)
	}
	if _, ok := got["srv_scatter_slowest_p99_ns"]; ok {
		t.Error("absent sample materialized in selection")
	}

	bare := httptest.NewServer(http.NotFoundHandler())
	defer bare.Close()
	if got := scrapeServerStages(bare.Client(), bare.URL); got != nil {
		t.Errorf("target without /metrics: got %v, want nil", got)
	}
}

// TestWriteResultsMergesSections pins the update-in-place contract: a new
// label lands next to existing sections (cmd/bench or earlier loadgen
// runs) without clobbering them.
func TestWriteResultsMergesSections(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(`{"baseline": {"go": "go1.0", "gomaxprocs": 1, "bench_flags": "x", "results": {}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	steps := []stepResult{{
		Concurrency: 4, Ops: 100, Resolves: 80, Adds: 15, Deletes: 5,
		Elapsed: time.Second, P50: time.Millisecond, P95: 2 * time.Millisecond,
		P99: 3 * time.Millisecond, MeanResolve: time.Millisecond,
	}}
	if err := writeResults(path, "parts-4", "flags", steps); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]benchSection
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["baseline"]; !ok {
		t.Error("merging dropped the existing baseline section")
	}
	sec, ok := doc["parts-4"]
	if !ok {
		t.Fatal("new section missing")
	}
	r, ok := sec.Results["loadgen/resolve/c=4"]
	if !ok {
		t.Fatalf("results = %v", sec.Results)
	}
	if r.Iterations != 80 || r.NsPerOp != float64(time.Millisecond.Nanoseconds()) {
		t.Errorf("result = %+v", r)
	}
	if r.Metrics["p99_ns"] != float64(3*time.Millisecond.Nanoseconds()) {
		t.Errorf("p99_ns = %v", r.Metrics["p99_ns"])
	}
	if r.Metrics["ops_per_s"] != 100 {
		t.Errorf("ops_per_s = %v", r.Metrics["ops_per_s"])
	}
	// Writing the same label again replaces, not duplicates.
	if err := writeResults(path, "parts-4", "flags2", steps); err != nil {
		t.Fatal(err)
	}
	raw, _ = os.ReadFile(path)
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc["parts-4"].BenchFlags != "flags2" {
		t.Errorf("rewrite kept old flags %q", doc["parts-4"].BenchFlags)
	}
	if len(doc) != 2 {
		t.Errorf("doc has %d sections, want 2", len(doc))
	}
}
