// Package baselines implements the four non-learnable risk-analysis
// techniques LearnRisk is compared against in Section 7.2 — Baseline [31],
// Uncertainty [40], TrustScore [35] and StaticRisk [14] — plus the
// HoloClean adaptation of Section 7.3 (holoclean.go). Each scorer returns
// one risk score per position of a machine labeling; higher means more
// likely mislabeled.
package baselines

import (
	"math"
	"sort"

	"repro/internal/classifier"
	"repro/internal/par"
	"repro/internal/stats"
)

// Baseline scores risk by classifier-output ambiguity [31]: outputs close
// to 0.5 are risky, extreme outputs are safe. The score is 0.5 - |p - 0.5|,
// a monotone transform of the softmax-ambiguity criterion.
func Baseline(l classifier.Labeled) []float64 {
	out := make([]float64, len(l.Idx))
	for k, p := range l.Prob {
		out[k] = 0.5 - math.Abs(p-0.5)
	}
	return out
}

// UncertaintyRows scores risk with a bootstrap ensemble [40] over
// precomputed full-catalog metric rows: the equivalence probability p̂ of a
// pair is the fraction of ensemble members voting matching, and the risk
// is the uncertainty score p̂(1-p̂). With 20 members the score takes at
// most 21 distinct values, which produces the "highly regular ROC curves"
// the paper notes. Pairs are scored in parallel.
func UncertaintyRows(e *classifier.Ensemble, rows [][]float64) []float64 {
	out := make([]float64, len(rows))
	par.For(len(rows), func(k int) {
		p := e.VoteProbRow(rows[k])
		out[k] = p * (1 - p)
	})
	return out
}

// TrustScorer implements TrustScore [35]: risk is measured by the ratio of
// the distance to the predicted class's training points over the distance
// to the nearest other class. Distances are k-nearest-neighbor distances in
// the classifier's hidden representation space (the paper feeds it the
// attribute-similarity summary vectors of the DNN).
type TrustScorer struct {
	k     int
	match [][]float64 // representations of true matches
	unmat [][]float64 // representations of true non-matches
}

// NewTrustScorer builds the per-class reference sets from labeled training
// data. k is the neighbor rank used for distances (default 5).
func NewTrustScorer(reps [][]float64, truth []bool, k int) *TrustScorer {
	if k <= 0 {
		k = 5
	}
	t := &TrustScorer{k: k}
	for i, r := range reps {
		if truth[i] {
			t.match = append(t.match, r)
		} else {
			t.unmat = append(t.unmat, r)
		}
	}
	return t
}

// kthDist returns the distance from x to its k-th nearest neighbor in set
// (or the farthest available when the set is smaller than k). An empty set
// yields +Inf.
func (t *TrustScorer) kthDist(x []float64, set [][]float64) float64 {
	if len(set) == 0 {
		return math.Inf(1)
	}
	dists := make([]float64, len(set))
	for i, s := range set {
		dists[i] = euclid(x, s)
	}
	sort.Float64s(dists)
	k := t.k
	if k > len(dists) {
		k = len(dists)
	}
	return dists[k-1]
}

func euclid(a, b []float64) float64 {
	s := 0.0
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Risk returns a risk score for a test point with representation x and
// machine label predictedMatch: the TrustScore is rhoN/rhoY (distance to
// the nearest other class over distance to the predicted class); the risk
// is its negation-equivalent rhoY/(rhoY+rhoN), higher when the point sits
// far from its predicted class.
func (t *TrustScorer) Risk(x []float64, predictedMatch bool) float64 {
	same, other := t.unmat, t.match
	if predictedMatch {
		same, other = t.match, t.unmat
	}
	rhoY := t.kthDist(x, same)
	rhoN := t.kthDist(x, other)
	if math.IsInf(rhoY, 1) && math.IsInf(rhoN, 1) {
		return 0.5
	}
	if math.IsInf(rhoY, 1) {
		return 1
	}
	if math.IsInf(rhoN, 1) {
		return 0
	}
	if rhoY+rhoN == 0 {
		return 0.5
	}
	return rhoY / (rhoY + rhoN)
}

// TrustScoresRows runs TrustScore end to end over precomputed full-catalog
// metric rows: reference sets from the matcher's hidden representations of
// the training rows, risks for the labeled test rows. Hidden
// representations and k-NN risks are computed in parallel.
func TrustScoresRows(m *classifier.Matcher, trainRows [][]float64, trainTruth []bool,
	l classifier.Labeled, testRows [][]float64, k int) []float64 {

	reps := make([][]float64, len(trainRows))
	par.For(len(trainRows), func(j int) { reps[j] = m.HiddenRow(trainRows[j]) })
	scorer := NewTrustScorer(reps, trainTruth, k)
	out := make([]float64, len(l.Idx))
	par.For(len(l.Idx), func(j int) {
		out[j] = scorer.Risk(m.HiddenRow(testRows[j]), l.Label[j])
	})
	return out
}

// StaticRiskConfig holds the StaticRisk baseline's settings.
type StaticRiskConfig struct {
	// Theta is the CVaR confidence level (default 0.9).
	Theta float64
	// Buckets groups pairs by classifier output for the Bayesian update
	// (default 10).
	Buckets int
	// PriorStrength is the equivalent sample size of the classifier-output
	// prior (default 10; large alpha+beta justifies the paper's normal
	// approximation discussion).
	PriorStrength float64
}

func (c StaticRiskConfig) withDefaults() StaticRiskConfig {
	if c.Theta == 0 {
		c.Theta = 0.9
	}
	if c.Buckets == 0 {
		c.Buckets = 10
	}
	if c.PriorStrength == 0 {
		c.PriorStrength = 10
	}
	return c
}

// StaticRisk implements the non-learnable Bayesian baseline [14]: the
// classifier output is the prior expectation of a pair's equivalence
// probability (a Beta prior with PriorStrength pseudo-counts); the
// human-labeled validation pairs falling in the same classifier-output
// bucket are the samples of the Bayesian update; the risk is the CVaR of
// the posterior mislabeling-loss distribution.
func StaticRisk(test classifier.Labeled, valid classifier.Labeled, cfg StaticRiskConfig) []float64 {
	cfg = cfg.withDefaults()
	cal := classifier.Calibration{Buckets: cfg.Buckets}
	matches := make([]float64, cfg.Buckets)
	counts := make([]float64, cfg.Buckets)
	for k := range valid.Idx {
		b := cal.Bucket(valid.Prob[k])
		counts[b]++
		if valid.Truth[k] {
			matches[b]++
		}
	}
	out := make([]float64, len(test.Idx))
	for k := range test.Idx {
		p := clamp01(test.Prob[k], 1e-3)
		b := cal.Bucket(p)
		alpha := p*cfg.PriorStrength + matches[b]
		beta := (1-p)*cfg.PriorStrength + (counts[b] - matches[b])
		post, err := stats.NewBeta(alpha, beta)
		if err != nil {
			out[k] = 0.5
			continue
		}
		if test.Label[k] {
			// Loss = 1 - X with X ~ Beta(alpha, beta); 1 - X ~ Beta(beta, alpha).
			loss, _ := stats.NewBeta(beta, alpha)
			out[k] = loss.CVaR(cfg.Theta)
		} else {
			out[k] = post.CVaR(cfg.Theta)
		}
	}
	return out
}

func clamp01(p, eps float64) float64 {
	if p < eps {
		return eps
	}
	if p > 1-eps {
		return 1 - eps
	}
	return p
}
