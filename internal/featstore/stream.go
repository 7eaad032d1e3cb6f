package featstore

import (
	"fmt"
	"iter"
	"sync"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/par"
)

// DefaultStreamWindow is the Streamer's pair-window size when the caller
// passes zero: small enough that a window's rows and prepared records stay
// cache- and memory-bounded, large enough to amortize the parallel fill
// fan-out.
const DefaultStreamWindow = 1024

// streamFillChunk is the per-worker granularity of the window fill.
const streamFillChunk = 64

// Streamer computes metric rows over a lazy candidate-pair stream
// (blocking.CandidateSeq, or a replayed pair list) in bounded windows. It
// is the row source of the facade's batch pipeline and fills Store. Memory
// is bounded by one window: the row backing, the window's distinct
// prepared records (reusable metrics.Prepared rows, reset in place — the
// serving path's pooled scratch), and the per-worker metric DP buffers.
// Nothing grows with the stream length.
//
// Row values are bit-identical to ComputeRowAppend's: the same catalog
// evaluation over the same prepared forms, with each record prepared once
// per window.
//
// A Streamer is owned by one goroutine at a time; Run parallelizes
// internally with disjoint writes.
type Streamer struct {
	cat    *metrics.Catalog
	width  int
	window int
	needs  []metrics.Need

	sideL, sideR streamSide
	epoch        int32

	pairs   []dataset.Pair
	rows    [][]float64
	backing []float64

	msPool sync.Pool // *metrics.Scratch
}

// streamSide is one table's per-window preparation state: an epoch-stamped
// slot array mapping record index -> entry in the reusable prepared-row
// pool, plus the list of records claimed by the current window.
type streamSide struct {
	t     *dataset.Table
	slot  []int32
	stamp []int32
	pool  [][]metrics.Prepared
	used  int
	dist  []int32
}

// NewStreamer builds a streamer computing the catalog's metric rows for
// pairs over the two tables. window <= 0 selects DefaultStreamWindow.
func NewStreamer(cat *metrics.Catalog, left, right *dataset.Table, window int) *Streamer {
	if window <= 0 {
		window = DefaultStreamWindow
	}
	return &Streamer{
		cat:    cat,
		width:  len(cat.Metrics),
		window: window,
		needs:  cat.AttrNeeds(),
		sideL: streamSide{
			t:     left,
			slot:  make([]int32, len(left.Records)),
			stamp: make([]int32, len(left.Records)),
		},
		sideR: streamSide{
			t:     right,
			slot:  make([]int32, len(right.Records)),
			stamp: make([]int32, len(right.Records)),
		},
	}
}

// Run consumes the pair stream in windows, computes the metric rows of the
// kept pairs of each window, and hands each window to sink. The stream
// position of pair j of a window is base+j — keep (optional; nil keeps
// everything) decides by stream position whether a pair's row is computed,
// so a caller can run complementary passes (train/valid rows, then test
// rows) at one row computation each. rows[j] is nil for skipped pairs and
// otherwise a view into the window's recycled backing; the sink must copy
// anything it retains. A sink error stops the stream immediately and is
// returned. The returned count is the number of pairs delivered to the
// sink.
func (st *Streamer) Run(seq iter.Seq[dataset.Pair], keep func(i int) bool, sink func(base int, pairs []dataset.Pair, rows [][]float64) error) (int, error) {
	done := 0
	st.pairs = st.pairs[:0]
	var err error
	for p := range seq {
		st.pairs = append(st.pairs, p)
		if len(st.pairs) == st.window {
			if err = st.flush(done, keep, sink); err != nil {
				break
			}
			done += len(st.pairs)
			st.pairs = st.pairs[:0]
		}
	}
	if err == nil && len(st.pairs) > 0 {
		if err = st.flush(done, keep, sink); err == nil {
			done += len(st.pairs)
		}
	}
	st.pairs = st.pairs[:0]
	return done, err
}

// flush computes and delivers the buffered window starting at stream
// position base.
func (st *Streamer) flush(base int, keep func(i int) bool, sink func(base int, pairs []dataset.Pair, rows [][]float64) error) error {
	n := len(st.pairs)
	if need := n * st.width; cap(st.backing) < need {
		st.backing = make([]float64, need)
	} else {
		st.backing = st.backing[:need]
	}
	st.rows = st.rows[:0]
	st.nextEpoch()
	st.sideL.beginWindow()
	st.sideR.beginWindow()
	for j, p := range st.pairs {
		if p.Left < 0 || p.Left >= len(st.sideL.t.Records) || p.Right < 0 || p.Right >= len(st.sideR.t.Records) {
			panic(fmt.Sprintf("featstore: streamed pair %d references records (%d,%d) outside tables of %d x %d records",
				base+j, p.Left, p.Right, len(st.sideL.t.Records), len(st.sideR.t.Records)))
		}
		if keep != nil && !keep(base+j) {
			st.rows = append(st.rows, nil)
			continue
		}
		st.rows = append(st.rows, st.backing[j*st.width:(j+1)*st.width:(j+1)*st.width])
		st.sideL.claim(p.Left, st.epoch, len(st.needs))
		st.sideR.claim(p.Right, st.epoch, len(st.needs))
	}
	st.sideL.prepare(st.needs)
	st.sideR.prepare(st.needs)
	par.ForChunks(n, streamFillChunk, func(_, lo, hi int) {
		ms, _ := st.msPool.Get().(*metrics.Scratch)
		if ms == nil {
			ms = new(metrics.Scratch)
		}
		st.fillRows(lo, hi, ms)
		st.msPool.Put(ms)
	})
	return sink(base, st.pairs, st.rows)
}

// nextEpoch advances the window epoch, clearing the side stamps on the
// (practically unreachable) int32 wrap so stale slots can never collide.
func (st *Streamer) nextEpoch() {
	st.epoch++
	if st.epoch == 0 {
		clear(st.sideL.stamp)
		clear(st.sideR.stamp)
		st.epoch = 1
	}
}

// fillRows computes the kept rows of one window chunk — the streaming
// inner loop: one ComputePreparedInto per pair over the window's reused
// prepared records, zero allocations per pair.
//
//vetkit:hotpath
func (st *Streamer) fillRows(lo, hi int, ms *metrics.Scratch) {
	for j := lo; j < hi; j++ {
		row := st.rows[j]
		if row == nil {
			continue
		}
		p := st.pairs[j]
		st.cat.ComputePreparedInto(row, st.sideL.pool[st.sideL.slot[p.Left]], st.sideR.pool[st.sideR.slot[p.Right]], ms)
	}
}

// beginWindow resets the side's per-window claims (the pool entries stay
// for reuse).
func (sd *streamSide) beginWindow() {
	sd.used = 0
	sd.dist = sd.dist[:0]
}

// claim reserves a prepared-row pool entry for record ri in the current
// window (idempotent per window via the epoch stamp).
func (sd *streamSide) claim(ri int, epoch int32, nattrs int) {
	if sd.stamp[ri] == epoch {
		return
	}
	sd.stamp[ri] = epoch
	if sd.used == len(sd.pool) {
		sd.pool = append(sd.pool, make([]metrics.Prepared, nattrs))
	}
	sd.slot[ri] = int32(sd.used)
	sd.dist = append(sd.dist, int32(ri))
	sd.used++
}

// prepare resets the window's claimed prepared rows to their records'
// values, in parallel over distinct records — each record is prepared once
// per window however many pairs reference it.
func (sd *streamSide) prepare(needs []metrics.Need) {
	par.For(len(sd.dist), func(k int) {
		ri := int(sd.dist[k])
		resetRow(sd.pool[sd.slot[ri]], sd.t.Records[ri].Values, needs)
	})
}
