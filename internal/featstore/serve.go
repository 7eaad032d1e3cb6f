package featstore

import "repro/internal/metrics"

// ServeScratch is the reusable working state of one serving worker: a pair
// of prepared-attribute rows (reset per pair with exactly the derived
// forms the catalog's metrics read), the per-metric DP scratch, and a
// one-pair side cache. With a ServeScratch, ComputeRowAppend computes
// metric rows with zero heap allocations in steady state.
//
// A ServeScratch is bound to the catalog it was built for and is owned by
// one goroutine at a time (the facade pools them). The side cache retains
// references to the most recent pair's value slices.
type ServeScratch struct {
	needs        []metrics.Need
	pa, pb       []metrics.Prepared
	ms           metrics.Scratch
	lastL, lastR []string
}

// NewServeScratch builds a ServeScratch for the catalog.
func NewServeScratch(cat *metrics.Catalog) *ServeScratch {
	n := cat.NumAttrs()
	return &ServeScratch{
		needs: cat.AttrNeeds(),
		pa:    make([]metrics.Prepared, n),
		pb:    make([]metrics.Prepared, n),
	}
}

// resetSide re-points one side's prepared row at new raw values, skipping
// the work entirely when the values are identical to the side's previous
// pair (the "one query against K candidates" serving shape, and
// consecutive batch pairs sharing a record). last retains the value slice
// contents for that comparison.
//
//vetkit:hotpath
func (s *ServeScratch) resetSide(prep []metrics.Prepared, last *[]string, vals []string) {
	if sameValues(*last, vals) {
		return
	}
	resetRow(prep, vals, s.needs)
	*last = append((*last)[:0], vals...)
}

//vetkit:hotpath
func sameValues(a, b []string) bool {
	if a == nil || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ComputeRowAppend appends the full-catalog metric row of one raw pair to
// dst and returns the extended slice, computing every derived value
// through the scratch's reusable buffers. Sides shorter than the catalog's
// attribute count score as if padded with "". Steady state (buffers grown,
// dst capacity sufficient) performs zero heap allocations.
//
//vetkit:hotpath
func ComputeRowAppend(cat *metrics.Catalog, dst []float64, left, right []string, s *ServeScratch) []float64 {
	s.resetSide(s.pa, &s.lastL, left)
	s.resetSide(s.pb, &s.lastR, right)
	base := len(dst)
	w := len(cat.Metrics)
	if cap(dst) >= base+w {
		dst = dst[:base+w]
	} else {
		grown := make([]float64, base+w, 2*(base+w)) //vetkit:allow hotpath amortized growth, cold after warm-up
		copy(grown, dst)
		dst = grown
	}
	cat.ComputePreparedInto(dst[base:], s.pa, s.pb, &s.ms)
	return dst
}
