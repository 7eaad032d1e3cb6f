package metrics

// Scratch holds the per-call working buffers of the metric cores that need
// dynamic-programming tables or match flags (Levenshtein, Jaro, LCS). The
// prepared metric entry points (Metric.PFn) take a *Scratch so a serving
// worker can evaluate a whole catalog row — and any number of rows — with
// zero heap allocations in steady state: the buffers grow to the longest
// value seen and are then reused.
//
// A Scratch is owned by one goroutine at a time; the zero value is ready to
// use.
type Scratch struct {
	ia, ib []int32
	ba, bb []bool

	// Bit-parallel LCS state (bitlcs.go): match masks, the column vector,
	// and the pattern rune index.
	masks []uint64
	vrow  []uint64
	ri    runeIndex
}

// i32s2 returns two int32 buffers of length n with unspecified contents
// (every DP user fully initializes them).
//
//vetkit:hotpath
func (s *Scratch) i32s2(n int) (a, b []int32) {
	if cap(s.ia) < n {
		s.ia = make([]int32, n) //vetkit:allow hotpath amortized scratch growth
	}
	if cap(s.ib) < n {
		s.ib = make([]int32, n) //vetkit:allow hotpath amortized scratch growth
	}
	return s.ia[:n], s.ib[:n]
}

// bools2 returns two zeroed bool buffers of lengths na and nb.
//
//vetkit:hotpath
func (s *Scratch) bools2(na, nb int) (a, b []bool) {
	if cap(s.ba) < na {
		s.ba = make([]bool, na) //vetkit:allow hotpath amortized scratch growth
	}
	if cap(s.bb) < nb {
		s.bb = make([]bool, nb) //vetkit:allow hotpath amortized scratch growth
	}
	a, b = s.ba[:na], s.bb[:nb]
	for i := range a {
		a[i] = false
	}
	for i := range b {
		b[i] = false
	}
	return a, b
}
