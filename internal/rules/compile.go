package rules

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/par"
)

// RuleSet is a rule collection compiled for column-at-a-time evaluation.
// Compilation deduplicates predicates (rules generated from tree paths
// share prefixes heavily), groups them by metric column with sorted
// thresholds, and validates the width invariant once: a predicate whose
// metric index falls outside the matrix width is a schema/rule mismatch
// that fails loudly at compile time, replacing the silent never-fires
// behavior of the legacy Predicate.Holds guard.
//
// Evaluation visits each row's referenced columns once. For a column value
// v, the holding LE predicates are exactly those with threshold >= v (a
// suffix of the ascending threshold list) and the holding GT predicates
// those with threshold < v (a prefix), both found by one binary search.
// Counting satisfied predicates per rule then yields the firing set. Rows
// are processed in parallel chunks with per-chunk scratch; every result is
// integral, so parallel evaluation is bit-identical to the serial loop.
type RuleSet struct {
	rules []Rule
	width int
	npred []int32    // predicates per rule
	grps  []colGroup // one per referenced column
}

// colGroup holds the deduplicated predicates of one metric column. The
// postings flatten into one slice with offsets so evaluation touches two
// contiguous arrays per op.
type colGroup struct {
	col int

	leThr  []float64 // ascending; predicate t holds when v <= leThr[t]
	leOff  []int32   // posting offsets, len = len(leThr)+1
	lePost []int32   // rule ids

	gtThr  []float64 // ascending; predicate t holds when v > gtThr[t]
	gtOff  []int32
	gtPost []int32
}

// Compile builds a RuleSet over metric matrices of the given width. It
// returns an error when any predicate references a column outside
// [0, width) — a schema/rule mismatch.
func Compile(rs []Rule, width int) (*RuleSet, error) {
	c := &RuleSet{rules: rs, width: width, npred: make([]int32, len(rs))}

	type predID struct {
		col int
		op  Op
		thr float64
	}
	postings := make(map[predID][]int32)
	for j := range rs {
		c.npred[j] = int32(len(rs[j].Predicates))
		for _, p := range rs[j].Predicates {
			if p.Metric < 0 || p.Metric >= width {
				return nil, fmt.Errorf("rules: predicate %q references metric column %d outside matrix width %d (schema/rule mismatch)",
					p.String(), p.Metric, width)
			}
			id := predID{col: p.Metric, op: p.Op, thr: p.Threshold}
			postings[id] = append(postings[id], int32(j))
		}
	}

	byCol := make(map[int][]predID)
	for id := range postings {
		byCol[id.col] = append(byCol[id.col], id)
	}
	cols := make([]int, 0, len(byCol))
	for col := range byCol {
		cols = append(cols, col)
	}
	sort.Ints(cols)

	for _, col := range cols {
		ids := byCol[col]
		sort.Slice(ids, func(a, b int) bool {
			if ids[a].thr != ids[b].thr {
				return ids[a].thr < ids[b].thr
			}
			return ids[a].op < ids[b].op
		})
		g := colGroup{col: col, leOff: []int32{0}, gtOff: []int32{0}}
		for _, id := range ids {
			rulesOf := postings[id]
			sort.Slice(rulesOf, func(a, b int) bool { return rulesOf[a] < rulesOf[b] })
			if id.op == LE {
				g.leThr = append(g.leThr, id.thr)
				g.lePost = append(g.lePost, rulesOf...)
				g.leOff = append(g.leOff, int32(len(g.lePost)))
			} else {
				g.gtThr = append(g.gtThr, id.thr)
				g.gtPost = append(g.gtPost, rulesOf...)
				g.gtOff = append(g.gtOff, int32(len(g.gtPost)))
			}
		}
		c.grps = append(c.grps, g)
	}
	return c, nil
}

// NumRules returns the number of compiled rules.
func (c *RuleSet) NumRules() int { return len(c.rules) }

// Width returns the matrix width the set was compiled against.
func (c *RuleSet) Width() int { return c.width }

// Rules returns the underlying rules (shared, not copied).
func (c *RuleSet) Rules() []Rule { return c.rules }

// countInto computes the satisfied-predicate count of every rule on one
// row into counts (len NumRules; zeroed here). It is the shared core of
// the append-form fireInto and the bitset-form ApplyRowBitset.
//
//vetkit:hotpath
func (c *RuleSet) countInto(x []float64, counts []int32) {
	for i := range counts {
		counts[i] = 0
	}
	for gi := range c.grps {
		g := &c.grps[gi]
		v := x[g.col]
		if v != v {
			// NaN compares false under both <= and >, so no predicate
			// holds — the binary searches below would wrongly treat every
			// GT predicate as satisfied.
			continue
		}
		// LE predicates with threshold >= v hold.
		lo := sort.SearchFloat64s(g.leThr, v)
		for _, r := range g.lePost[g.leOff[lo]:] {
			counts[r]++
		}
		// GT predicates with threshold < v hold.
		hi := sort.SearchFloat64s(g.gtThr, v)
		for _, r := range c.gtHolding(g, hi) {
			counts[r]++
		}
	}
}

// fireInto computes the firing set of one row, appending the firing rule
// ids in ascending order to dst. counts is caller scratch of len NumRules.
func (c *RuleSet) fireInto(x []float64, counts []int32, dst []int32) []int32 {
	c.countInto(x, counts)
	for r := range c.npred {
		if counts[r] == c.npred[r] {
			dst = append(dst, int32(r))
		}
	}
	return dst
}

//vetkit:hotpath
func (c *RuleSet) gtHolding(g *colGroup, hi int) []int32 {
	return g.gtPost[:g.gtOff[hi]]
}

// RowScratch is the reusable per-worker state of single-row rule
// evaluation: the satisfied-predicate counts and the rule-firing bitset
// ApplyRowBitset writes into. One RowScratch serves one goroutine at a
// time; the serving facade pools one per scoring worker.
type RowScratch struct {
	counts []int32
	bits   []uint64 // bit r set = rule r fires on the last evaluated row
}

// NewRowScratch sizes a scratch for this rule set.
func (c *RuleSet) NewRowScratch() *RowScratch {
	return &RowScratch{
		counts: make([]int32, len(c.rules)),
		bits:   make([]uint64, (len(c.rules)+63)/64),
	}
}

// Bits exposes the scratch's firing bitset (valid until the next
// ApplyRowBitset call on the scratch).
//
//vetkit:hotpath
func (s *RowScratch) Bits() []uint64 { return s.bits }

// AppendFired appends the firing rule indices of the last ApplyRowBitset
// call to dst in ascending order — exactly ApplyRow's result — with zero
// allocations once dst has capacity.
//
//vetkit:hotpath
func (s *RowScratch) AppendFired(dst []int) []int {
	for w, m := range s.bits {
		for m != 0 {
			b := bits.TrailingZeros64(m)
			dst = append(dst, w*64+b)
			m &^= 1 << b
		}
	}
	return dst
}

// ApplyRowBitset evaluates the set on a single metric row, writing the
// firing set into the caller-provided bitset of s (cleared first). It is
// the zero-allocation core of ApplyRow: same width invariant, same firing
// semantics, no per-call heap traffic. Decode the result with
// s.AppendFired (ascending rule order) or read s.Bits directly.
//
//vetkit:hotpath
func (c *RuleSet) ApplyRowBitset(x []float64, s *RowScratch) {
	if len(x) < c.width {
		panic(fmt.Sprintf("rules: row width %d below compiled width %d (schema/rule mismatch)", len(x), c.width)) //vetkit:allow hotpath cold invariant-violation branch
	}
	for i := range s.bits {
		s.bits[i] = 0
	}
	c.countInto(x, s.counts)
	for r := range c.npred {
		if s.counts[r] == c.npred[r] {
			s.bits[r/64] |= 1 << (r % 64)
		}
	}
}

// ApplyRow evaluates the set on a single metric row and returns the indices
// of the firing rules in ascending order (nil when none fire, matching
// Apply's per-row contract). Scratch is allocated per call, so ApplyRow is
// safe for concurrent use from any number of goroutines; steady-state
// serving goes through ApplyRowBitset with a pooled RowScratch instead,
// which performs zero allocations. The result is identical to Apply's row
// entry. A row narrower than the compiled width violates the width
// invariant and panics loudly rather than firing on garbage.
func (c *RuleSet) ApplyRow(x []float64) []int {
	s := c.NewRowScratch()
	c.ApplyRowBitset(x, s)
	return s.AppendFired(nil)
}

// evalChunkSize is the row-chunk granularity of parallel evaluation; a
// multiple of 64 so chunk bitmask writes land in disjoint words.
const evalChunkSize = 1024

// Apply evaluates the set on every row and returns the firing sets:
// fired[i] lists, in ascending order, the indices of the rules firing on
// row i — the same contract as the package-level Apply. Rows are evaluated
// in parallel; rows with no firing rules get a nil entry (as the naive
// append-based loop produced).
func (c *RuleSet) Apply(X [][]float64) [][]int {
	fired := make([][]int, len(X))
	par.ForChunks(len(X), evalChunkSize, func(_, lo, hi int) {
		counts := make([]int32, len(c.rules))
		var scratch []int32
		for i := lo; i < hi; i++ {
			scratch = c.fireInto(X[i], counts, scratch[:0])
			if len(scratch) == 0 {
				continue
			}
			row := make([]int, len(scratch))
			for k, r := range scratch {
				row[k] = int(r)
			}
			fired[i] = row
		}
	})
	return fired
}

// Firings is the bitmask form of an evaluation: one bitset of rows per
// rule. It is the compact shared representation Stats and Coverage consume.
type Firings struct {
	nrows int
	words int
	masks [][]uint64 // per rule; bit i set = rule fires on row i
}

// Eval evaluates the set on every row into per-rule row bitmasks.
func (c *RuleSet) Eval(X [][]float64) *Firings {
	f := &Firings{nrows: len(X), words: (len(X) + 63) / 64}
	f.masks = make([][]uint64, len(c.rules))
	backing := make([]uint64, f.words*len(c.rules))
	for r := range f.masks {
		f.masks[r] = backing[r*f.words : (r+1)*f.words]
	}
	par.ForChunks(len(X), evalChunkSize, func(_, lo, hi int) {
		counts := make([]int32, len(c.rules))
		var scratch []int32
		for i := lo; i < hi; i++ {
			scratch = c.fireInto(X[i], counts, scratch[:0])
			w, bit := i/64, uint64(1)<<(i%64)
			for _, r := range scratch {
				f.masks[r][w] |= bit
			}
		}
	})
	return f
}

// Fires reports whether rule r fires on row i.
func (f *Firings) Fires(r, i int) bool {
	return f.masks[r][i/64]&(uint64(1)<<(i%64)) != 0
}

// Stats computes per-rule support/match statistics from the firing masks
// and the ground-truth labels, matching the package-level Stats contract.
func (c *RuleSet) Stats(X [][]float64, y []bool) []Stat {
	f := c.Eval(X)
	ymask := make([]uint64, f.words)
	for i, match := range y {
		if match {
			ymask[i/64] |= uint64(1) << (i % 64)
		}
	}
	out := make([]Stat, len(c.rules))
	par.For(len(c.rules), func(r int) {
		support, matches := 0, 0
		for w, m := range f.masks[r] {
			support += bits.OnesCount64(m)
			matches += bits.OnesCount64(m & ymask[w])
		}
		out[r] = Stat{
			Support:   support,
			Matches:   matches,
			MatchRate: (float64(matches) + 1) / (float64(support) + 2),
		}
	})
	return out
}

// Coverage returns the fraction of rows on which at least one rule fires.
func (c *RuleSet) Coverage(X [][]float64) float64 {
	if len(X) == 0 {
		return 0
	}
	f := c.Eval(X)
	covered := 0
	any := make([]uint64, f.words)
	for _, m := range f.masks {
		for w := range any {
			any[w] |= m[w]
		}
	}
	for _, m := range any {
		covered += bits.OnesCount64(m)
	}
	return float64(covered) / float64(f.nrows)
}
