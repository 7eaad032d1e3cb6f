// Package dtree implements the decision-tree machinery behind rule
// generation: classic two-sided CART with Gini impurity (paper Eq. 5–6) and
// a random forest on top (used to produce the HoloClean comparison's
// labeling rules), plus the paper's one-sided decision forest driven by the
// one-sided Gini index (Eq. 7, Algorithm 1), which emits the interpretable
// risk features.
package dtree

import "sort"

// giniCounts holds weighted class mass on one side of a split.
type giniCounts struct {
	match, unmatch float64 // weighted counts
	n              int     // raw (unweighted) count
}

func (g giniCounts) gini() float64 {
	total := g.match + g.unmatch
	if total == 0 {
		return 0
	}
	tm := g.match / total
	tu := g.unmatch / total
	return 1 - tm*tm - tu*tu
}

// matchFrac returns the unweighted is-this-side-mostly-matching signal used
// to assign a rule's RHS class.
func (g giniCounts) add(match bool, w float64) giniCounts {
	if match {
		g.match += w
	} else {
		g.unmatch += w
	}
	g.n++
	return g
}

func (g giniCounts) sub(match bool, w float64) giniCounts {
	if match {
		g.match -= w
	} else {
		g.unmatch -= w
	}
	g.n--
	return g
}

// splitResult describes the best threshold found for one column.
type splitResult struct {
	ok        bool
	threshold float64
	left      giniCounts // rows with value <= threshold
	right     giniCounts // rows with value > threshold
	score     float64    // criterion value (lower is better)
}

// splitVal is one row's value on the column being split and its class.
type splitVal struct {
	v float64
	m bool
}

// bestSplit finds the threshold on column c (over the row subset idx) that
// minimizes criterion(left, right). matchWeight multiplies the weighted
// mass of matching rows (the paper's class weighting for matching-rule
// generation). minLeaf disqualifies splits leaving fewer than minLeaf raw
// rows on either side. buf is the caller's scratch of at least len(idx)
// values; its contents are overwritten.
func bestSplit(X [][]float64, y []bool, idx []int, c int, matchWeight float64,
	minLeaf int, criterion func(l, r giniCounts) float64, buf []splitVal) splitResult {

	vals := buf[:len(idx)]
	var total giniCounts
	for k, i := range idx {
		w := 1.0
		if y[i] {
			w = matchWeight
		}
		vals[k] = splitVal{v: X[i][c], m: y[i]}
		total = total.add(y[i], w)
	}
	sort.Slice(vals, func(a, b int) bool { return vals[a].v < vals[b].v })

	res := splitResult{score: 1e18}
	var left giniCounts
	right := total
	for k := 0; k < len(vals)-1; k++ {
		w := 1.0
		if vals[k].m {
			w = matchWeight
		}
		left = left.add(vals[k].m, w)
		right = right.sub(vals[k].m, w)
		if vals[k].v == vals[k+1].v {
			continue // not a boundary between distinct values
		}
		if left.n < minLeaf || right.n < minLeaf {
			continue
		}
		score := criterion(left, right)
		if score < res.score {
			res = splitResult{
				ok:        true,
				threshold: (vals[k].v + vals[k+1].v) / 2,
				left:      left,
				right:     right,
				score:     score,
			}
		}
	}
	return res
}

// twoSidedGini is the classic CART criterion (Eq. 5): the size-weighted sum
// of the two children's Gini values.
func twoSidedGini(l, r giniCounts) float64 {
	n := float64(l.n + r.n)
	if n == 0 {
		return 0
	}
	return float64(l.n)/n*l.gini() + float64(r.n)/n*r.gini()
}

// oneSidedGini is the paper's Eq. 7 with balance parameter lambda: the
// better (smaller) of the two children's size-penalized impurities. A small
// lambda prefers purity over size.
func oneSidedGini(lambda float64) func(l, r giniCounts) float64 {
	return func(l, r giniCounts) float64 {
		sl := lambda/float64(l.n) + (1-lambda)*l.gini()
		sr := lambda/float64(r.n) + (1-lambda)*r.gini()
		if sl < sr {
			return sl
		}
		return sr
	}
}

// rawCounts recomputes unweighted counts for a row subset; rule
// qualification ("the generated matching rules are finally filtered without
// class weighting") uses these rather than the weighted masses.
func rawCounts(y []bool, idx []int) giniCounts {
	var g giniCounts
	for _, i := range idx {
		g = g.add(y[i], 1)
	}
	return g
}

// purity returns the unweighted majority fraction and majority class.
func purity(g giniCounts) (frac float64, match bool) {
	total := g.match + g.unmatch
	if total == 0 {
		return 1, false
	}
	if g.match >= g.unmatch {
		return g.match / total, true
	}
	return g.unmatch / total, false
}
