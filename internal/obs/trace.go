package obs

import (
	"sync/atomic"
	"time"
)

// Stage identifies one timed segment of a request's path through the
// serving stack. Stage durations accumulate on a Trace and feed the
// per-stage registry histograms (stage_<name>_ns).
type Stage uint8

const (
	// Resolve path.
	StageProbeTokenize  Stage = iota // probe tokenization / candidate generation
	StageScore                       // candidate scoring: probability ranking + the k survivors' verdicts
	StageScatter                     // partitioned scatter wall time (all legs)
	StageScatterSlowest              // slowest single partition leg
	StageTopKMerge                   // order-stable top-k merge

	// Ingest / durability path.
	StageWALAppend  // WAL frame build + write
	StageWALFsync   // fsync after append (fsync=always only)
	StageStoreApply // in-memory store mutation after WAL append

	// Snapshot path.
	StageSnapshotCut     // quiesce + cut: collect live rows, rotate WAL
	StageSnapshotPublish // write temp snapshot, rename, prune segments

	NumStages int = iota
)

var stageNames = [NumStages]string{
	StageProbeTokenize:   "probe_tokenize",
	StageScore:           "score",
	StageScatter:         "scatter",
	StageScatterSlowest:  "scatter_slowest",
	StageTopKMerge:       "topk_merge",
	StageWALAppend:       "wal_append",
	StageWALFsync:        "wal_fsync",
	StageStoreApply:      "store_apply",
	StageSnapshotCut:     "snapshot_cut",
	StageSnapshotPublish: "snapshot_publish",
}

// String returns the stage's snake_case name (used in metric names and
// slow-request log keys).
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Trace accumulates per-stage durations for one request. All methods are
// nil-safe: a nil *Trace is the "tracing off" mode and every operation on
// it is a no-op, so hot paths thread the pointer unconditionally and pay
// one predictable branch when tracing is disabled.
//
// Stage additions are atomic, so concurrent writers (partition scatter
// legs) may record onto the same Trace without synchronization.
type Trace struct {
	id    uint64
	start time.Time
	ns    [NumStages]atomic.Int64

	// slowest packs the slowest partition leg as duration<<8 | partition,
	// maintained by CAS so concurrent scatter legs race safely.
	slowest atomic.Uint64
}

// NewTrace returns a Trace with the given request id, started now.
func NewTrace(id uint64) *Trace {
	return &Trace{id: id, start: time.Now()}
}

// ID returns the request id assigned at creation.
func (t *Trace) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// Add accumulates d into stage s. Nil-safe; negative durations are ignored.
func (t *Trace) Add(s Stage, d time.Duration) {
	if t == nil || d < 0 {
		return
	}
	t.ns[s].Add(int64(d))
}

// Observe accumulates the elapsed time since t0 into stage s. Nil-safe.
func (t *Trace) Observe(s Stage, t0 time.Time) {
	if t == nil {
		return
	}
	t.Add(s, time.Since(t0))
}

// Stage returns the accumulated duration of stage s.
func (t *Trace) Stage(s Stage) time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.ns[s].Load())
}

const slowestPartMask = 0xff

// ObservePartition records the duration of one scatter leg and keeps the
// slowest leg (with its partition index) via CAS. Nil-safe.
func (t *Trace) ObservePartition(part int, d time.Duration) {
	if t == nil || d < 0 {
		return
	}
	packed := uint64(d)<<8 | uint64(part)&slowestPartMask
	for {
		cur := t.slowest.Load()
		if uint64(d) <= cur>>8 || t.slowest.CompareAndSwap(cur, packed) {
			return
		}
	}
}

// Slowest returns the partition index and duration of the slowest
// scatter leg, or (0, 0) if none was recorded.
func (t *Trace) Slowest() (part int, d time.Duration) {
	if t == nil {
		return 0, 0
	}
	packed := t.slowest.Load()
	return int(packed & slowestPartMask), time.Duration(packed >> 8)
}

// Total returns the wall time since the trace was created.
func (t *Trace) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.start)
}

// Each calls f for every stage with a nonzero accumulated duration, in
// stage order. Nil-safe.
func (t *Trace) Each(f func(s Stage, d time.Duration)) {
	if t == nil {
		return
	}
	for s := 0; s < NumStages; s++ {
		if d := t.ns[s].Load(); d > 0 {
			f(Stage(s), time.Duration(d))
		}
	}
}

// Reset clears all stage durations and restarts the clock, keeping the
// id. Benchmarks reuse one Trace across iterations with this.
func (t *Trace) Reset() {
	if t == nil {
		return
	}
	for s := range t.ns {
		t.ns[s].Store(0)
	}
	t.slowest.Store(0)
	t.start = time.Now()
}
