// Package obs is the repo's dependency-free observability substrate:
// lock-cheap atomic counters and gauges, a fixed-bucket log-scale latency
// histogram (mergeable, nearest-rank quantiles, zero allocations at
// steady state), a process-wide Registry that renders both Prometheus
// text exposition (GET /metrics) and the legacy expvar tree, a runtime
// sampler (heap, GC, goroutines, fds), and a request-scoped Trace that
// the serving hot paths take as a parameter to record per-stage
// durations.
//
// The package imports only the standard library and is imported by the
// lowest layers of the repo (wal, match, partition), so it must never
// grow a dependency on any other internal package.
package obs

import "sync/atomic"

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; registered counters are created via Registry.Counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
//
//vetkit:hotpath
func (c *Counter) Add(n int64) {
	c.v.Add(n)
}

// Inc increments the counter by one.
//
//vetkit:hotpath
func (c *Counter) Inc() {
	c.v.Add(1)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (queue depth, live records).
// The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
//
//vetkit:hotpath
func (g *Gauge) Set(n int64) {
	g.v.Store(n)
}

// Add adjusts the gauge by delta (negative to decrease).
//
//vetkit:hotpath
func (g *Gauge) Add(delta int64) {
	g.v.Add(delta)
}

// Value returns the current gauge reading.
func (g *Gauge) Value() int64 {
	return g.v.Load()
}
