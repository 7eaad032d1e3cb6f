// Package featstore computes basic-metric rows — one value per catalog
// metric for a candidate pair — in three shapes:
//
//   - Streamer folds a lazy candidate-pair stream in bounded windows. The
//     facade's batch pipeline (Train, Run, Evaluate) runs on it.
//   - ComputeRowAppend computes the row of one raw pair through a reusable
//     ServeScratch, for the serving path.
//   - Store is the columnar metric store of a materialized workload:
//     every pair's row computed lazily, at most once, into chunked
//     row-major backing that callers take index views of. The experiment
//     lab (internal/experiments) and active learning (internal/active)
//     reuse its rows across overlapping subsamples and retraining rounds.
//
// All three prepare a record the same way: resetRow re-points a row of
// metrics.Prepared values at the record's attribute values, deriving
// exactly the forms the catalog's metrics read. Store prepares each record
// once per workload, Streamer once per window, and ServeScratch skips a
// side whose values repeat the previous pair's, so a record shared by many
// candidate pairs is normalized and tokenized once. All three shapes
// produce bit-identical rows.
package featstore

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/par"
)

// Store is the columnar metric store of one workload under one catalog.
// Rows are computed lazily and cached; the zero cost of a repeated request
// is what turns the repeated-evaluation experiment loops (Figure 11/12/13
// sweeps, ensemble training, active-learning rounds) from quadratic
// recomputation into array reads. It holds a row for every requested pair,
// so a one-shot pass over a large workload should use a Streamer instead.
//
// A Store is safe for use from one goroutine at a time; the internal row
// fill parallelizes across pairs with disjoint writes.
type Store struct {
	w     *dataset.Workload
	cat   *metrics.Catalog
	width int

	chunks [][]float64 // row-major backing, chunkRows rows per chunk, allocated lazily
	ready  []bool      // per pair

	needs []metrics.Need       // per attribute, derived once from the catalog
	prepL [][]metrics.Prepared // per left-table record, per attribute; nil = not yet prepared
	prepR [][]metrics.Prepared // per right-table record, per attribute; nil = not yet prepared
}

// chunkRows is the row granularity of lazy backing allocation: a store over
// a huge workload costs memory proportional to the rows actually touched
// (rounded up to chunks), not to the workload size, while rows inside a
// chunk stay contiguous for locality.
const chunkRows = 1024

// New builds an empty store over the workload's candidate pairs. Nothing is
// computed — and no row backing is allocated — until rows are requested.
func New(w *dataset.Workload, cat *metrics.Catalog) *Store {
	width := len(cat.Metrics)
	n := len(w.Pairs)
	s := &Store{
		w:      w,
		cat:    cat,
		width:  width,
		chunks: make([][]float64, (n+chunkRows-1)/chunkRows),
		ready:  make([]bool, n),
	}
	return s
}

// Workload returns the workload the store is built over.
func (s *Store) Workload() *dataset.Workload { return s.w }

// Catalog returns the metric catalog the store evaluates.
func (s *Store) Catalog() *metrics.Catalog { return s.cat }

// Width returns the number of metric columns.
func (s *Store) Width() int { return s.width }

// prepareFor prepares the attribute values of exactly the records the
// given (missing) pairs reference, in parallel over records.
// Each record value is prepared at most once no matter how many candidate
// pairs reference it, and records never requested are never prepared — a
// store over a large workload costs only what is actually read.
func (s *Store) prepareFor(missing []int) {
	if s.prepL == nil {
		s.needs = s.cat.AttrNeeds()
		s.prepL = make([][]metrics.Prepared, len(s.w.Left.Records))
		s.prepR = make([][]metrics.Prepared, len(s.w.Right.Records))
	}
	var left, right []int
	seenL := make(map[int]struct{})
	seenR := make(map[int]struct{})
	for _, i := range missing {
		p := s.w.Pairs[i]
		if s.prepL[p.Left] == nil {
			if _, ok := seenL[p.Left]; !ok {
				seenL[p.Left] = struct{}{}
				left = append(left, p.Left)
			}
		}
		if s.prepR[p.Right] == nil {
			if _, ok := seenR[p.Right]; !ok {
				seenR[p.Right] = struct{}{}
				right = append(right, p.Right)
			}
		}
	}
	prep := func(t *dataset.Table, rows [][]metrics.Prepared, idx []int) {
		par.For(len(idx), func(k int) {
			i := idx[k]
			row := make([]metrics.Prepared, len(s.needs))
			resetRow(row, t.Records[i].Values, s.needs)
			rows[i] = row
		})
	}
	prep(s.w.Left, s.prepL, left)
	prep(s.w.Right, s.prepR, right)
}

// Rows returns views of the metric rows of the given pair indices,
// computing any missing rows in parallel. The rows alias the store's
// backing array; callers must not modify them.
func (s *Store) Rows(idx []int) [][]float64 {
	var missing []int
	seen := make(map[int]bool)
	for _, i := range idx {
		if i < 0 || i >= len(s.ready) {
			panic(fmt.Sprintf("featstore: pair index %d out of range [0,%d)", i, len(s.ready)))
		}
		if !s.ready[i] && !seen[i] {
			seen[i] = true
			missing = append(missing, i)
		}
	}
	if len(missing) > 0 {
		s.prepareFor(missing)
		// Chunks are allocated serially before the parallel fill, whose
		// writes into them are then disjoint per pair.
		for _, i := range missing {
			s.ensureChunk(i)
		}
		par.For(len(missing), func(k int) {
			s.fill(missing[k])
		})
		for _, i := range missing {
			s.ready[i] = true
		}
	}
	out := make([][]float64, len(idx))
	for k, i := range idx {
		out[k] = s.view(i)
	}
	return out
}

// ensureChunk allocates the backing chunk holding pair i's row if needed.
func (s *Store) ensureChunk(i int) {
	c := i / chunkRows
	if s.chunks[c] == nil {
		s.chunks[c] = make([]float64, chunkRows*s.width)
	}
}

// fill computes pair i's metric row into the (already allocated) backing
// chunk. The nil scratch keeps per-row metric buffers local to the call
// (the parallel fill shares nothing across workers).
func (s *Store) fill(i int) {
	p := s.w.Pairs[i]
	s.cat.ComputePreparedInto(s.view(i), s.prepL[p.Left], s.prepR[p.Right], nil)
}

// view returns the slice header for pair i's row (capacity-clipped so
// appends by a misbehaving caller cannot bleed into the next row).
func (s *Store) view(i int) []float64 {
	off := (i % chunkRows) * s.width
	return s.chunks[i/chunkRows][off : off+s.width : off+s.width]
}

// resetRow re-points a prepared row (one metrics.Prepared per catalog
// attribute) at one record's values, deriving for each attribute exactly
// the forms needs names; attributes past the end of vals are "".
//
//vetkit:hotpath
func resetRow(row []metrics.Prepared, vals []string, needs []metrics.Need) {
	for a := range row {
		v := ""
		if a < len(vals) {
			v = vals[a]
		}
		row[a].Reset(v, needs[a])
	}
}
