package obs

import (
	"bufio"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"regexp"
	"sort"
	"sync"
)

// Registry owns a named set of metrics and renders them in two formats:
// Prometheus text exposition (WritePrometheus / Handler, served on
// GET /metrics) and — when MirrorExpvar has been called — the legacy
// expvar tree on /debug/vars, with names unchanged so existing
// dashboards keep working.
//
// Registration panics on an invalid or duplicate name: metric names are
// part of the program's observable API and collisions are bugs, caught
// at startup (and statically by the metriclint analyzer).
type Registry struct {
	mu      sync.RWMutex
	metrics []*metric
	names   map[string]bool
	mirror  bool
}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindFunc
)

type metric struct {
	name    string
	kind    metricKind
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() any
}

var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// Counter registers and returns a new counter under name.
func (r *Registry) Counter(name string) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, kind: kindCounter, counter: c})
	return c
}

// Gauge registers and returns a new gauge under name.
func (r *Registry) Gauge(name string) *Gauge {
	g := &Gauge{}
	r.register(&metric{name: name, kind: kindGauge, gauge: g})
	return g
}

// Histogram registers and returns a new histogram under name. By
// convention histogram names end in _ns and record nanoseconds.
func (r *Registry) Histogram(name string) *Histogram {
	h := &Histogram{}
	r.register(&metric{name: name, kind: kindHistogram, hist: h})
	return h
}

// Func registers a metric whose value is computed at scrape time. The
// returned value may be a number, bool, string, map, struct, or slice;
// WritePrometheus flattens nested maps and structs into
// name_key_subkey sample lines (strings are skipped, bools become 0/1).
func (r *Registry) Func(name string, fn func() any) {
	r.register(&metric{name: name, kind: kindFunc, fn: fn})
}

func (r *Registry) register(m *metric) {
	if !metricNameRE.MatchString(m.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q (want snake_case)", m.name))
	}
	r.mu.Lock()
	if r.names[m.name] {
		r.mu.Unlock()
		panic(fmt.Sprintf("obs: duplicate metric name %q", m.name))
	}
	r.names[m.name] = true
	r.metrics = append(r.metrics, m)
	mirror := r.mirror
	r.mu.Unlock()
	if mirror {
		m.publishExpvar()
	}
}

// MirrorExpvar publishes every metric (current and future) onto the
// process-global expvar tree under its registry name, preserving the
// /debug/vars surface that predates the registry. Call at most once per
// process per name set: expvar itself panics on duplicate names.
func (r *Registry) MirrorExpvar() {
	r.mu.Lock()
	r.mirror = true
	ms := make([]*metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()
	for _, m := range ms {
		m.publishExpvar()
	}
}

func (m *metric) publishExpvar() {
	expvar.Publish(m.name, expvar.Func(m.scrapeValue)) //vetkit:allow expvarlint registry mirror republishes validated, uniqueness-checked names
}

// scrapeValue returns the metric's current value for expvar rendering.
func (m *metric) scrapeValue() any {
	switch m.kind {
	case kindCounter:
		return m.counter.Value()
	case kindGauge:
		return m.gauge.Value()
	case kindHistogram:
		s := m.hist.Snapshot()
		return map[string]any{
			"count": s.Count,
			"sum":   s.Sum,
			"max":   s.Max,
			"p50":   s.Quantile(0.50),
			"p95":   s.Quantile(0.95),
			"p99":   s.Quantile(0.99),
		}
	default:
		return m.fn()
	}
}

// Handler returns an http.Handler serving Prometheus text exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// WritePrometheus renders every metric in Prometheus text exposition
// format. Counters and gauges render as their type; histograms render as
// summaries (quantile 0.5/0.95/0.99 labels plus _sum, _count, and a _max
// gauge) — far more compact than exposing all 488 le-buckets. Func
// metrics are flattened: nested map/struct keys join the metric name with
// underscores, numeric slice elements get an i="<index>" label.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.RLock()
	ms := make([]*metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.RUnlock()

	bw := bufio.NewWriter(w)
	defer bw.Flush()
	for _, m := range ms {
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(bw, "# TYPE %s counter\n%s %d\n", m.name, m.name, m.counter.Value())
		case kindGauge:
			fmt.Fprintf(bw, "# TYPE %s gauge\n%s %d\n", m.name, m.name, m.gauge.Value())
		case kindHistogram:
			s := m.hist.Snapshot()
			fmt.Fprintf(bw, "# TYPE %s summary\n", m.name)
			fmt.Fprintf(bw, "%s{quantile=\"0.5\"} %d\n", m.name, s.Quantile(0.50))
			fmt.Fprintf(bw, "%s{quantile=\"0.95\"} %d\n", m.name, s.Quantile(0.95))
			fmt.Fprintf(bw, "%s{quantile=\"0.99\"} %d\n", m.name, s.Quantile(0.99))
			fmt.Fprintf(bw, "%s_sum %d\n", m.name, s.Sum)
			fmt.Fprintf(bw, "%s_count %d\n", m.name, s.Count)
			fmt.Fprintf(bw, "# TYPE %s_max gauge\n%s_max %d\n", m.name, m.name, s.Max)
		case kindFunc:
			flattenPrometheus(bw, m.name, "", 0, reflect.ValueOf(m.fn()))
		}
	}
}

var labelSanitizeRE = regexp.MustCompile(`[^a-z0-9_]`)

func sanitizeKey(k string) string {
	return labelSanitizeRE.ReplaceAllString(toLower(k), "_")
}

func toLower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + ('a' - 'A')
		}
	}
	return string(b)
}

// flattenPrometheus emits sample lines for an arbitrary scraped value.
// Strings are skipped (Prometheus samples are numeric); bools become 0/1.
// Slice elements get one index label per nesting level — i for the
// outermost, then j, k, ... — so nested slices render distinct samples;
// depth counts the slice levels already labeled.
func flattenPrometheus(w io.Writer, name, labels string, depth int, v reflect.Value) {
	for v.Kind() == reflect.Interface || v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return
		}
		v = v.Elem()
	}
	switch v.Kind() {
	case reflect.Bool:
		n := 0
		if v.Bool() {
			n = 1
		}
		emitSample(w, name, labels, fmt.Sprintf("%d", n))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		emitSample(w, name, labels, fmt.Sprintf("%d", v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		emitSample(w, name, labels, fmt.Sprintf("%d", v.Uint()))
	case reflect.Float32, reflect.Float64:
		emitSample(w, name, labels, fmt.Sprintf("%g", v.Float()))
	case reflect.Map:
		if v.Type().Key().Kind() != reflect.String {
			return
		}
		keys := make([]string, 0, v.Len())
		for _, k := range v.MapKeys() {
			keys = append(keys, k.String())
		}
		sort.Strings(keys)
		for _, k := range keys {
			flattenPrometheus(w, name+"_"+sanitizeKey(k), labels, depth, v.MapIndex(reflect.ValueOf(k)))
		}
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			flattenPrometheus(w, name+"_"+sanitizeKey(f.Name), labels, depth, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		sep := ""
		if labels != "" {
			sep = ","
		}
		for i := 0; i < v.Len(); i++ {
			l := fmt.Sprintf("%s%s%c=\"%d\"", labels, sep, 'i'+depth, i)
			flattenPrometheus(w, name, l, depth+1, v.Index(i))
		}
	}
}

func emitSample(w io.Writer, name, labels, value string) {
	if labels == "" {
		fmt.Fprintf(w, "%s %s\n", name, value)
	} else {
		fmt.Fprintf(w, "%s{%s} %s\n", name, labels, value)
	}
}
