// Package featstore computes basic-metric rows — one value per catalog
// metric for a candidate pair. There are two row computations:
//
//   - Streamer folds a lazy candidate-pair stream in bounded windows, for
//     many pairs. The facade's batch pipeline (Train, Run, Evaluate) runs
//     on it.
//   - ComputeRowAppend computes the row of one raw pair through a reusable
//     ServeScratch, for the serving path.
//
// Store is a table of a materialized workload's rows that one Streamer
// pass fills. It is read-only after New, so concurrent readers are safe.
// The experiment lab (internal/experiments) and active learning
// (internal/active) take index views of it.
//
// Both computations prepare a record the same way: resetRow re-points a
// row of metrics.Prepared values at the record's attribute values,
// deriving exactly the forms the catalog's metrics read. Streamer prepares
// each record once per window and ServeScratch skips a side whose values
// repeat the previous pair's, so a record shared by many candidate pairs
// is normalized and tokenized once. Both produce bit-identical rows.
package featstore

import (
	"fmt"
	"slices"

	"repro/internal/dataset"
	"repro/internal/metrics"
)

// Store holds the metric row of every candidate pair of one workload under
// one catalog, in one row-major backing array indexed by pair. It holds a
// row for every pair, so a one-shot pass over a large workload should use
// a Streamer instead.
//
// A Store is read-only after New, so concurrent readers are safe.
type Store struct {
	width   int
	n       int
	backing []float64
}

// New computes the metric row of every pair of the workload in one
// Streamer pass.
func New(w *dataset.Workload, cat *metrics.Catalog) *Store {
	s := &Store{
		width:   len(cat.Metrics),
		n:       len(w.Pairs),
		backing: make([]float64, len(w.Pairs)*len(cat.Metrics)),
	}
	// The sink never fails, so neither does Run.
	st := NewStreamer(cat, w.Left, w.Right, 0)
	_, _ = st.Run(slices.Values(w.Pairs), nil, func(base int, _ []dataset.Pair, rows [][]float64) error {
		for j, row := range rows {
			copy(s.backing[(base+j)*s.width:], row)
		}
		return nil
	})
	return s
}

// Width returns the number of metric columns.
func (s *Store) Width() int { return s.width }

// Rows returns views of the metric rows of the given pair indices. The rows
// alias the store's backing array (capacity-clipped, so an append cannot
// bleed into the next row); callers must not modify them.
func (s *Store) Rows(idx []int) [][]float64 {
	out := make([][]float64, len(idx))
	for k, i := range idx {
		if i < 0 || i >= s.n {
			panic(fmt.Sprintf("featstore: pair index %d out of range [0,%d)", i, s.n))
		}
		off := i * s.width
		out[k] = s.backing[off : off+s.width : off+s.width]
	}
	return out
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
