package obs

import (
	"expvar"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestRegistryPrometheusRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total")
	c.Add(41)
	c.Inc()
	g := r.Gauge("queue_depth")
	g.Set(7)
	h := r.Histogram("latency_ns")
	for i := int64(1); i <= 100; i++ {
		h.Observe(i * 1000)
	}
	r.Func("stats", func() any {
		return map[string]any{
			"live":    3,
			"enabled": true,
			"dir":     "/tmp/skipped-strings",
			"ratio":   0.25,
			"nested":  map[string]any{"Deep": uint64(9)},
			"per":     []int{10, 20},
			// Nested slices get one index label per level.
			"grid": [][]struct{ N int }{{{1}, {2}}, {{3}}},
		}
	})

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()

	for _, want := range []string{
		"# TYPE reqs_total counter\nreqs_total 42\n",
		"# TYPE queue_depth gauge\nqueue_depth 7\n",
		"# TYPE latency_ns summary\n",
		"latency_ns{quantile=\"0.5\"}",
		"latency_ns{quantile=\"0.95\"}",
		"latency_ns{quantile=\"0.99\"}",
		"latency_ns_sum 5050000\n",
		"latency_ns_count 100\n",
		"latency_ns_max 100000\n",
		"stats_live 3\n",
		"stats_enabled 1\n",
		"stats_ratio 0.25\n",
		"stats_nested_deep 9\n",
		"stats_per{i=\"0\"} 10\n",
		"stats_per{i=\"1\"} 20\n",
		"stats_grid_n{i=\"0\",j=\"0\"} 1\n",
		"stats_grid_n{i=\"0\",j=\"1\"} 2\n",
		"stats_grid_n{i=\"1\",j=\"0\"} 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in render:\n%s", want, out)
		}
	}
	if strings.Contains(out, "skipped-strings") {
		t.Errorf("string value leaked into render:\n%s", out)
	}
}

func TestRegistryHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("handler_hits").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	buf := make([]byte, 1024)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "handler_hits 1") {
		t.Fatalf("body missing sample: %s", buf[:n])
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_name")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Gauge("dup_name")
}

func TestRegistryBadNamePanics(t *testing.T) {
	for _, bad := range []string{"", "CamelCase", "has-dash", "9starts_digit", "has space"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", bad)
				}
			}()
			NewRegistry().Counter(bad)
		}()
	}
}

func TestRegistryMirrorExpvar(t *testing.T) {
	// expvar is process-global: use test-unique names.
	r := NewRegistry()
	c := r.Counter("obs_test_mirror_counter")
	c.Add(5)
	h := r.Histogram("obs_test_mirror_hist_ns")
	h.Observe(1000)
	r.MirrorExpvar()
	// Metrics registered after MirrorExpvar are published too.
	r.Gauge("obs_test_mirror_gauge").Set(-3)

	if v := expvar.Get("obs_test_mirror_counter"); v == nil || v.String() != "5" {
		t.Fatalf("mirrored counter = %v", v)
	}
	if v := expvar.Get("obs_test_mirror_gauge"); v == nil || v.String() != "-3" {
		t.Fatalf("mirrored gauge = %v", v)
	}
	v := expvar.Get("obs_test_mirror_hist_ns")
	if v == nil {
		t.Fatal("histogram not mirrored")
	}
	for _, key := range []string{`"count":1`, `"p99":`} {
		if !strings.Contains(v.String(), key) {
			t.Fatalf("histogram expvar %s missing %s", v.String(), key)
		}
	}
}

func TestRegisterRuntime(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"runtime_stats_heap_alloc_bytes ",
		"runtime_stats_goroutines ",
		"runtime_stats_gc_cycles ",
		"runtime_stats_gc_pause_total_ns ",
		"runtime_stats_gomaxprocs ",
		"runtime_stats_open_fds ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("runtime stats missing %q:\n%s", want, out)
		}
	}
}

func TestSanitizeKey(t *testing.T) {
	for in, want := range map[string]string{
		"Records":   "records",
		"per-shard": "per_shard",
		"Heap.Sys":  "heap_sys",
	} {
		if got := sanitizeKey(in); got != want {
			t.Errorf("sanitizeKey(%q) = %q, want %q", in, got, want)
		}
	}
}

func ExampleRegistry_WritePrometheus() {
	r := NewRegistry()
	r.Counter("example_total").Add(3)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	fmt.Print(sb.String())
	// Output:
	// # TYPE example_total counter
	// example_total 3
}
