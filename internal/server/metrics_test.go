package server

import (
	"encoding/json"
	"expvar"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	learnrisk "repro"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/wal"
)

// syncBuf is a goroutine-safe strings.Builder for capturing slog output
// (concurrent handlers log from their own goroutines).
type syncBuf struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

// mirrorOnce guards the one MirrorExpvar call a test binary may make.
var mirrorOnce sync.Once

// newHTTPServer wraps an already-configured Server in a test listener —
// the metrics tests build their Server by hand to control Config.Obs.
func newHTTPServer(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

// TestMetricsEndToEnd drives every request kind through an obs-enabled
// server and reads the whole story back off GET /metrics: request and
// stage histograms counted, one stage histogram per obs.Stage under its
// Stage.String() name, the migrated debug trees rendered, and — with
// SlowRequest set below every request's latency — one structured
// slow-request log line per request.
func TestMetricsEndToEnd(t *testing.T) {
	var logBuf syncBuf
	reg := obs.NewRegistry()
	w, m := trainedModel(t, 7)
	srv := New(m, Config{
		Obs:         reg,
		SlowRequest: time.Nanosecond,
		Logger:      slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	ts := newHTTPServer(t, srv)

	l, r := w.PairValues(0)
	if code := postJSON(t, ts.URL+"/v1/score", PairRequest{Left: l, Right: r}, nil); code != http.StatusOK {
		t.Fatalf("score = %d", code)
	}
	vals, _ := w.RightRecordAt(0)
	id := addRecord(t, ts.URL, vals)
	if code := postJSON(t, ts.URL+"/v1/resolve", ResolveRequest{Values: vals, K: 3}, nil); code != http.StatusOK {
		t.Fatalf("resolve = %d", code)
	}
	if code := deleteRecord(t, ts.URL, id); code != http.StatusOK {
		t.Fatalf("delete = %d", code)
	}

	out := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		"request_score_ns_count 1",
		"request_resolve_ns_count 1",
		"request_ingest_ns_count 2",
		"stage_probe_tokenize_ns_count 1",
		"stage_score_ns_count 1",
		"stage_topk_merge_ns_count 1",
		"slow_requests_total 4",
		// The debug trees cmd/serve used to publish directly on expvar,
		// flattened into Prometheus samples from the same registrations.
		"served_pairs 1",
		"match_store_records_indexed 1",
		"match_store_resolves 1",
		"match_store_candidates 1", // the self-probe reaches its own record
		"partition_stats_partitions 1",
		"partition_stats_probes 1",
		"wal_stats_enabled 0",
		"snapshot_stats_enabled 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	for s := 0; s < obs.NumStages; s++ {
		if name := "stage_" + obs.Stage(s).String() + "_ns_count "; !strings.Contains(out, name) {
			t.Errorf("scrape has no histogram for stage %d: missing %q", s, name)
		}
	}

	// /debug/vars renders the same tree. expvar names are process-wide, so
	// the registry is mirrored once per test binary; a repeated run reads
	// the first run's server, whose counters are the same.
	mirrorOnce.Do(reg.MirrorExpvar)
	rec := httptest.NewRecorder()
	expvar.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/vars", nil))
	var vars struct {
		MatchStore map[string]float64 `json:"match_store"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatalf("decoding /debug/vars: %v", err)
	}
	if got, ok := vars.MatchStore["candidates"]; !ok || got != 1 {
		t.Errorf("/debug/vars match_store.candidates = %v (present %v), want 1", got, ok)
	}

	logs := logBuf.String()
	if got := strings.Count(logs, `"msg":"slow request"`); got != 4 {
		t.Errorf("slow-request lines = %d, want 4:\n%s", got, logs)
	}
	for _, want := range []string{
		`"kind":"score"`, `"kind":"resolve"`, `"kind":"ingest"`,
		`"request_id":1`, `"total_ns":`, `"topk_merge_ns":`,
	} {
		if !strings.Contains(logs, want) {
			t.Errorf("slow log missing %s:\n%s", want, logs)
		}
	}
}

// TestMetricsPartitionedScatter pins the scatter-stage story: resolves on
// a partitioned server time every partition leg, attribute the slowest
// one, and the debug trees count every partition.
func TestMetricsPartitionedScatter(t *testing.T) {
	reg := obs.NewRegistry()
	w, m := trainedModel(t, 7)
	srv := New(m, Config{Partitions: 2, Obs: reg})
	ts := newHTTPServer(t, srv)

	for i := 0; i < 6; i++ {
		vals, _ := w.RightRecordAt(i)
		addRecord(t, ts.URL, vals)
	}
	probe, _ := w.RightRecordAt(1)
	if code := postJSON(t, ts.URL+"/v1/resolve", ResolveRequest{Values: probe, K: 3}, nil); code != http.StatusOK {
		t.Fatalf("resolve = %d", code)
	}

	out := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		"stage_scatter_ns_count 1",
		"stage_scatter_slowest_ns_count 1",
		"stage_probe_tokenize_ns_count 1",
		"partition_stats_partitions 2",
		"partition_stats_probes 1",
		"match_store_records_live 6",
		"match_store_probes 2", // one candidate probe per partition leg
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestMetricsSampleKeysUnique: on a 4-partition server every sample line
// of GET /metrics names a distinct series — in particular the
// per-partition record counts must not collide.
func TestMetricsSampleKeysUnique(t *testing.T) {
	w, m := trainedModel(t, 7)
	srv := New(m, Config{Partitions: 4, Obs: obs.NewRegistry()})
	ts := newHTTPServer(t, srv)
	for i := 0; i < 8; i++ {
		vals, _ := w.RightRecordAt(i)
		addRecord(t, ts.URL, vals)
	}

	seen := map[string]bool{}
	partSamples := 0
	for _, line := range strings.Split(scrapeMetrics(t, ts.URL), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key := line[:strings.LastIndexByte(line, ' ')]
		if seen[key] {
			t.Errorf("duplicate sample %s", key)
		}
		seen[key] = true
		if strings.HasPrefix(key, "partition_stats_records{i=") {
			partSamples++
		}
	}
	if partSamples != 4 {
		t.Fatalf("scrape has %d partition_stats_records samples, want 4 (one per partition)", partSamples)
	}
}

// TestMetricsDurableStages pins the durability stages: WAL append, fsync,
// store apply on the ingest path, snapshot cut/publish via the OnStage
// callback, and the wal/snapshot/match-store debug trees aggregated over
// every partition of the durable store.
func TestMetricsDurableStages(t *testing.T) {
	for _, parts := range []int{1, 4} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			reg := obs.NewRegistry()
			w, m := trainedModel(t, 7)
			srv := New(m, Config{Partitions: parts, Obs: reg})
			ps, err := m.OpenDurablePartitionedMatchStore(t.TempDir(), parts, learnrisk.MatchConfig{}, match.DurableOptions{
				Sync: wal.SyncAlways, SnapshotEvery: -1,
				OnStage: srv.ObserveStage,
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.InstallStore(ps); err != nil {
				t.Fatal(err)
			}
			ts := newHTTPServer(t, srv)
			t.Cleanup(func() { ps.Close() })

			const adds = 6
			ids := make([]uint64, adds)
			for i := range ids {
				vals, _ := w.RightRecordAt(i)
				ids[i] = addRecord(t, ts.URL, vals)
			}
			if code := deleteRecord(t, ts.URL, ids[0]); code != http.StatusOK {
				t.Fatalf("delete = %d", code)
			}
			if code := postJSON(t, ts.URL+"/v1/snapshot", struct{}{}, nil); code != http.StatusOK {
				t.Fatalf("snapshot = %d", code)
			}

			const writes, live = adds + 1, adds - 1
			out := scrapeMetrics(t, ts.URL)
			for _, want := range []string{
				fmt.Sprintf("stage_wal_append_ns_count %d", writes),
				fmt.Sprintf("stage_wal_fsync_ns_count %d", writes),
				fmt.Sprintf("stage_store_apply_ns_count %d", writes),
				fmt.Sprintf("stage_snapshot_cut_ns_count %d", parts),
				fmt.Sprintf("stage_snapshot_publish_ns_count %d", parts),
				"wal_stats_enabled 1",
				fmt.Sprintf("wal_stats_appends %d", writes),
				"snapshot_stats_enabled 1",
				fmt.Sprintf("snapshot_stats_snapshots %d", parts),
				fmt.Sprintf("snapshot_stats_last_records %d", live),
				fmt.Sprintf("match_store_records_live %d", live),
				fmt.Sprintf("partition_stats_partitions %d", parts),
			} {
				if !strings.Contains(out, want+"\n") {
					t.Errorf("scrape missing %q", want)
				}
			}
		})
	}
}

// TestMetricsDisabled is the zero-overhead mode: no Config.Obs means no
// /metrics route, nil accessors, and every instrumentation entry point a
// safe no-op.
func TestMetricsDisabled(t *testing.T) {
	w, m := trainedModel(t, 7)
	srv := New(m, Config{})
	ts := newHTTPServer(t, srv)

	if srv.Metrics() != nil || srv.Registry() != nil {
		t.Fatal("obs-less server exposes metrics")
	}
	srv.ObserveStage(obs.StageSnapshotCut, time.Second) // must not panic

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /metrics without obs = %d, want 404", resp.StatusCode)
	}

	// The serving paths still work with nil traces threaded through.
	vals, _ := w.RightRecordAt(0)
	addRecord(t, ts.URL, vals)
	if code := postJSON(t, ts.URL+"/v1/resolve", ResolveRequest{Values: vals, K: 2}, nil); code != http.StatusOK {
		t.Fatalf("resolve = %d", code)
	}

	var nilM *Metrics
	if tr := nilM.begin(); tr != nil {
		t.Fatal("nil Metrics.begin returned a trace")
	}
	nilM.finish(reqScore, obs.NewTrace(1))
	nilM.observeStage(obs.StageScore, time.Second)
}

// TestReqKindString keeps the slow-log kind labels stable.
func TestReqKindString(t *testing.T) {
	for kind, want := range map[reqKind]string{
		reqScore: "score", reqResolve: "resolve", reqIngest: "ingest",
	} {
		if got := kind.String(); got != want {
			t.Errorf("reqKind %d = %q, want %q", kind, got, want)
		}
	}
}
