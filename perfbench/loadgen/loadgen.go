// Package loadgen is an open-loop load generator. Operations fall due on a
// fixed schedule, whatever the system under test is doing, and each one's
// latency is measured from its due time. A stall is therefore charged to
// every operation that fell due during it, not just to the one request in
// flight (the coordinated-omission error of closed-loop load generators).
//
// A fixed set of senders takes operations off the schedule in order; each
// sender owns one keep-alive connection, so the offered concurrency is
// bounded by the sender count and a slow server builds a queue in the
// generator, which the latencies include.
package loadgen

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Config describes one open-loop step.
type Config struct {
	Rate    float64       // operations per second
	Warmup  time.Duration // operations due before this are sent but not returned
	Measure time.Duration // operations due in [Warmup, Warmup+Measure) are returned
	Senders int           // concurrent senders
	// Drain bounds how long after the schedule's end an operation may still
	// be sent; measured operations not sent by then count as Missed.
	Drain time.Duration
}

// Sample is one measured operation.
type Sample struct {
	Op      int           // index in the schedule
	Kind    int           // caller-defined operation kind
	Due     time.Duration // due time, as an offset from the schedule start
	Send    time.Duration // send time, as an offset from the schedule start
	Latency time.Duration // completion minus due time
	// Late is the generator's own delay: the send time minus the later of
	// the due time and the moment the sender became free. Waiting for a busy
	// sender is queueing and belongs to Latency, not here.
	Late time.Duration
	Err  error
}

// Result is the outcome of one step.
type Result struct {
	Samples []Sample // measured operations that were sent, in schedule order
	Missed  int      // measured operations never sent (backlog at the drain deadline)
	Sent    int      // operations sent, warm-up included
	Failed  int      // operations sent whose Do returned an error, warm-up included
}

// Do sends operation i and reports its kind and error.
type Do func(ctx context.Context, i int) (kind int, err error)

// Run executes one step and returns once every sent operation has
// completed.
func Run(ctx context.Context, cfg Config, do Do) Result {
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	total := int((cfg.Warmup + cfg.Measure) / interval)
	firstMeasured := int((cfg.Warmup + interval - 1) / interval)
	cutoff := cfg.Warmup + cfg.Measure + cfg.Drain

	samples := make([]Sample, total)
	sent := make([]bool, total)
	var next atomic.Int64
	var nsent, nfailed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < cfg.Senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := time.Duration(0)
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= total {
					return
				}
				due := time.Duration(i) * interval
				if wait := due - time.Since(start); wait > 0 {
					t := time.NewTimer(wait)
					select {
					case <-ctx.Done():
						t.Stop()
						return
					case <-t.C:
					}
				}
				send := time.Since(start)
				if send > cutoff {
					continue
				}
				kind, err := do(ctx, i)
				end := time.Since(start)
				samples[i] = Sample{Op: i, Kind: kind, Due: due, Send: send, Latency: end - due, Late: send - max(due, free), Err: err}
				sent[i] = true
				nsent.Add(1)
				if err != nil {
					nfailed.Add(1)
				}
				free = end
			}
		}()
	}
	wg.Wait()

	res := Result{Sent: int(nsent.Load()), Failed: int(nfailed.Load())}
	for i := firstMeasured; i < total; i++ {
		if sent[i] {
			res.Samples = append(res.Samples, samples[i])
		} else {
			res.Missed++
		}
	}
	return res
}
