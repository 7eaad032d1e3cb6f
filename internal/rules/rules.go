// Package rules defines the interpretable rule representation shared by the
// one-sided risk-feature generator (paper Section 5) and the two-sided
// labeling rules of the HoloClean comparison (Section 7.3). A rule is a
// conjunction of threshold predicates over basic metric values, with a
// right-hand-side class; one-sided rules are the paper's risk features.
package rules

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Op is a comparison operator in a predicate.
type Op int

// Predicate operators. Thresholding a metric value m: LE means m <= T,
// GT means m > T.
const (
	LE Op = iota
	GT
)

// String returns "<=" or ">".
func (o Op) String() string {
	if o == GT {
		return ">"
	}
	return "<="
}

// Predicate is one atomic condition: metric[Metric] Op Threshold.
type Predicate struct {
	Metric    int    // index into the metric matrix column space
	Name      string // metric name for rendering, e.g. "year.num_diff"
	Op        Op
	Threshold float64
}

// Holds reports whether the predicate holds on the metric vector x. The
// out-of-range guard (false, never firing) is legacy behavior kept for the
// scalar path; compiled RuleSets validate the width invariant once at
// Compile time and reject mismatched rules loudly instead.
func (p Predicate) Holds(x []float64) bool {
	if p.Metric >= len(x) {
		return false
	}
	if p.Op == GT {
		return x[p.Metric] > p.Threshold
	}
	return x[p.Metric] <= p.Threshold
}

// String renders the predicate, e.g. "year.num_diff > 0.500".
func (p Predicate) String() string {
	return fmt.Sprintf("%s %s %.3f", p.Name, p.Op, p.Threshold)
}

// Rule is a conjunction of predicates implying a class. For one-sided rules
// (risk features) the implication is one-directional: a pair that satisfies
// the LHS very likely has the RHS class; nothing is implied otherwise
// (paper Section 5, "one-sidedness").
type Rule struct {
	Predicates []Predicate
	Match      bool    // RHS class: true = matching, false = unmatching
	Support    int     // training pairs satisfying the LHS
	Purity     float64 // fraction of the support carrying the RHS class
}

// Fires reports whether every predicate holds on the metric vector x.
func (r *Rule) Fires(x []float64) bool {
	for _, p := range r.Predicates {
		if !p.Holds(x) {
			return false
		}
	}
	return true
}

// String renders the rule as "p1 ∧ p2 → matching [support=…, purity=…]".
func (r *Rule) String() string {
	parts := make([]string, len(r.Predicates))
	for i, p := range r.Predicates {
		parts[i] = p.String()
	}
	rhs := "unmatching"
	if r.Match {
		rhs = "matching"
	}
	return fmt.Sprintf("%s -> %s [support=%d purity=%.3f]",
		strings.Join(parts, " AND "), rhs, r.Support, r.Purity)
}

// predKey is one predicate in canonical comparable form. The threshold is
// quantized to 9 decimal places, matching the rounding of the previous
// fmt.Sprintf("%.9f")-based string key, so dedup equivalence classes are
// unchanged.
type predKey struct {
	metric int32
	op     int32
	thr    int64 // round(threshold * 1e9)
}

// maxInlinePreds bounds the predicate count representable in the inline
// comparable key. Rule generation caps depth at MaxDepth (≤ 4 in practice),
// so the overflow string path is effectively never taken.
const maxInlinePreds = 8

// ruleKey is a canonical, comparable identity for deduplication: the sorted
// predicate set plus the class. Unlike the previous string key, building it
// performs no allocation for rules with up to maxInlinePreds predicates —
// it sits inside rule generation's inner loop.
type ruleKey struct {
	match bool
	n     int32
	preds [maxInlinePreds]predKey
	extra string // only for rules with more than maxInlinePreds predicates
}

// key returns the canonical identity of the rule.
func (r *Rule) key() ruleKey {
	k := ruleKey{match: r.Match, n: int32(len(r.Predicates))}
	if len(r.Predicates) > maxInlinePreds {
		parts := make([]string, len(r.Predicates))
		for i, p := range r.Predicates {
			parts[i] = fmt.Sprintf("%d|%d|%.9f", p.Metric, p.Op, p.Threshold)
		}
		sort.Strings(parts)
		k.extra = strings.Join(parts, ";")
		return k
	}
	for i, p := range r.Predicates {
		pk := predKey{metric: int32(p.Metric), op: int32(p.Op), thr: quantize(p.Threshold)}
		// Insertion sort keeps the inline array canonical without allocating.
		j := i
		for j > 0 && pk.less(k.preds[j-1]) {
			k.preds[j] = k.preds[j-1]
			j--
		}
		k.preds[j] = pk
	}
	return k
}

func (a predKey) less(b predKey) bool {
	if a.metric != b.metric {
		return a.metric < b.metric
	}
	if a.op != b.op {
		return a.op < b.op
	}
	return a.thr < b.thr
}

func quantize(t float64) int64 {
	return int64(math.Round(t * 1e9))
}

// Dedup removes duplicate rules (same predicate set and class), keeping the
// occurrence with the larger support. Order is deterministic: by descending
// support, then by rendered text.
func Dedup(rs []Rule) []Rule {
	best := make(map[ruleKey]int, len(rs)) // key -> index into rs
	order := make([]ruleKey, 0, len(rs))   // first-seen order for determinism
	for i := range rs {
		k := rs[i].key()
		if cur, ok := best[k]; !ok {
			best[k] = i
			order = append(order, k)
		} else if rs[i].Support > rs[cur].Support {
			best[k] = i
		}
	}
	out := make([]Rule, 0, len(best))
	for _, k := range order {
		out = append(out, rs[best[k]])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		return out[i].String() < out[j].String()
	})
	return out
}

// Stat summarizes a rule's behaviour on a labeled sample: how many rows it
// fires on and the Laplace-smoothed match rate among them. The risk model
// uses the smoothed rate as the rule's distribution expectation mu_f
// (paper Section 6.2.1).
type Stat struct {
	Support   int
	Matches   int
	MatchRate float64 // (Matches+1)/(Support+2)
}
