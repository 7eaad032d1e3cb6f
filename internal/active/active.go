// Package active implements the ER active-learning experiment of paper
// Section 8 / Figure 14: a DeepMatcher-substitute classifier is trained on
// a small seed set and iteratively retrained as batches of pool pairs are
// selected for labeling by LeastConfidence, Entropy, or LearnRisk risk
// ranking.
package active

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dtree"
	"repro/internal/featstore"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

// Method names the pair-selection strategies of Figure 14.
type Method string

// Selection strategies.
const (
	LeastConfidence Method = "LeastConfidence"
	Entropy         Method = "Entropy"
	LearnRisk       Method = "LearnRisk"
)

// Config controls the active-learning loop.
type Config struct {
	InitialSize int // |L| seed labels (paper: 128)
	BatchSize   int // labels acquired per round (paper: 64)
	Rounds      int // retraining rounds (default 9, reaching ~704 labels)
	Classifier  classifier.Config
	Risk        core.Config          // used by the LearnRisk method
	RuleGen     dtree.OneSidedConfig // used by the LearnRisk method
	Seed        uint64
}

func (c Config) withDefaults() Config {
	if c.InitialSize == 0 {
		c.InitialSize = 128
	}
	if c.BatchSize == 0 {
		c.BatchSize = 64
	}
	if c.Rounds == 0 {
		c.Rounds = 9
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Risk.Epochs == 0 {
		c.Risk.Epochs = 200 // inner loop; full budget is unnecessary
	}
	return c
}

// Point is one measurement of the learning curve: classifier F1 on the
// held-out test set after training on Size labeled pairs.
type Point struct {
	Size int
	F1   float64
}

// Run executes the loop with the given selection method over the workload:
// pool is the unlabeled candidate set, test the held-out evaluation set.
// st holds the workload's metric rows under cat (featstore.New(w, cat));
// every round's retraining, labeling and pool scoring read their rows from
// it, and runs of several methods on one workload can share it.
func Run(w *dataset.Workload, cat *metrics.Catalog, st *featstore.Store, pool, test []int, method Method, cfg Config) ([]Point, error) {
	return RunCtx(context.Background(), w, cat, st, pool, test, method, cfg)
}

// RunCtx is Run with cooperative cancellation: the context is checked at
// every acquisition round and plumbed through the per-round classifier
// retraining, so a canceled context aborts the loop with ctx.Err(). With a
// background context the curve is identical to Run's.
func RunCtx(ctx context.Context, w *dataset.Workload, cat *metrics.Catalog, st *featstore.Store, pool, test []int, method Method, cfg Config) ([]Point, error) {
	cfg = cfg.withDefaults()
	if st.Width() != len(cat.Metrics) {
		return nil, fmt.Errorf("active: feature store rows have %d metrics, the catalog %d", st.Width(), len(cat.Metrics))
	}
	if len(pool) < cfg.InitialSize+cfg.BatchSize {
		return nil, fmt.Errorf("active: pool of %d too small for initial %d + batch %d",
			len(pool), cfg.InitialSize, cfg.BatchSize)
	}
	switch method {
	case LeastConfidence, Entropy, LearnRisk:
	default:
		return nil, fmt.Errorf("active: unknown method %q", method)
	}

	rng := stats.NewRNG(cfg.Seed)
	pool = append([]int(nil), pool...)
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })

	// Seed set: stratified so both classes are present (the classifier
	// cannot train single-class).
	labeled, unlabeled, err := seedSplit(w, pool, cfg.InitialSize)
	if err != nil {
		return nil, err
	}

	var curve []Point
	for round := 0; ; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m, err := classifier.TrainRowsCtx(ctx, w, cat, labeled, st.Rows(labeled), withSeed(cfg.Classifier, cfg.Seed+uint64(round)), nil)
		if err != nil {
			return nil, fmt.Errorf("active: round %d: %w", round, err)
		}
		curve = append(curve, Point{Size: len(labeled), F1: m.LabelRows(w, test, st.Rows(test)).F1()})
		if round >= cfg.Rounds || len(unlabeled) < cfg.BatchSize {
			return curve, nil
		}

		scores, err := scorePool(ctx, w, cat, st, m, labeled, unlabeled, method, cfg)
		if err != nil {
			return nil, fmt.Errorf("active: round %d: %w", round, err)
		}
		picked := topK(unlabeled, scores, cfg.BatchSize)
		labeled = append(labeled, picked...)
		unlabeled = remove(unlabeled, picked)
	}
}

func withSeed(c classifier.Config, seed uint64) classifier.Config {
	if c.Seed == 0 {
		c.Seed = seed
	}
	return c
}

func seedSplit(w *dataset.Workload, pool []int, n int) (labeled, unlabeled []int, err error) {
	var pos, neg []int
	for _, i := range pool {
		if w.Pairs[i].Match {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	if len(pos) == 0 || len(neg) == 0 {
		return nil, nil, errors.New("active: pool contains a single class")
	}
	// Take a positive share proportional to the pool, but at least 2.
	nPos := n * len(pos) / len(pool)
	if nPos < 2 {
		nPos = 2
	}
	if nPos > n-2 {
		nPos = n - 2
	}
	labeled = append(labeled, pos[:min(nPos, len(pos))]...)
	labeled = append(labeled, neg[:min(n-len(labeled), len(neg))]...)
	taken := make(map[int]bool, len(labeled))
	for _, i := range labeled {
		taken[i] = true
	}
	for _, i := range pool {
		if !taken[i] {
			unlabeled = append(unlabeled, i)
		}
	}
	return labeled, unlabeled, nil
}

// scorePool returns one acquisition score per unlabeled index (higher =
// select first).
func scorePool(ctx context.Context, w *dataset.Workload, cat *metrics.Catalog, st *featstore.Store, m *classifier.Matcher,
	labeled, unlabeled []int, method Method, cfg Config) ([]float64, error) {

	poolRows := st.Rows(unlabeled)
	probs := make([]float64, len(unlabeled))
	par.For(len(unlabeled), func(k int) {
		probs[k] = m.ProbRow(poolRows[k])
	})
	switch method {
	case LeastConfidence:
		out := make([]float64, len(probs))
		for k, p := range probs {
			conf := p
			if conf < 0.5 {
				conf = 1 - conf
			}
			out[k] = 1 - conf
		}
		return out, nil
	case Entropy:
		out := make([]float64, len(probs))
		for k, p := range probs {
			out[k] = classifier.Entropy(p)
		}
		return out, nil
	case LearnRisk:
		return learnRiskScores(ctx, w, cat, st, m, labeled, unlabeled, probs, cfg)
	}
	return nil, fmt.Errorf("active: unknown method %q", method)
}

// learnRiskScores trains a LearnRisk model on the already-labeled pairs
// (whose mislabel flags are known) and scores the unlabeled pool by VaR
// risk — "at each iteration, the algorithm can select the most risky
// instances for labeling" (Section 8).
func learnRiskScores(ctx context.Context, w *dataset.Workload, cat *metrics.Catalog, st *featstore.Store, m *classifier.Matcher,
	labeled, unlabeled []int, poolProbs []float64, cfg Config) ([]float64, error) {

	trainX := st.Rows(labeled)
	labTrain := m.LabelRows(w, labeled, trainX)
	// A perfect classifier on the labeled set (or one wrong on every pair)
	// leaves nothing to rank on; fall back to entropy scores in that case.
	if bad := labTrain.MislabelCount(); bad == 0 || bad == len(labeled) {
		out := make([]float64, len(unlabeled))
		for k := range unlabeled {
			out[k] = classifier.Entropy(poolProbs[k])
		}
		return out, nil
	}
	feats, err := pipeline.Generate(ctx, trainX, labTrain.Truth, cat.Names(), cfg.RuleGen)
	if err != nil {
		return nil, err
	}
	model, err := pipeline.Fit(ctx, feats, trainX, labTrain, cfg.Risk, nil)
	if err != nil {
		return nil, err
	}
	poolX := st.Rows(unlabeled)
	return pipeline.Risks(model, feats, poolX, m.LabelRows(w, unlabeled, poolX)), nil
}

// topK returns the k indices with the highest scores (deterministic
// tie-break by position).
func topK(idx []int, scores []float64, k int) []int {
	type pair struct {
		i int
		s float64
	}
	ps := make([]pair, len(idx))
	for j, i := range idx {
		ps[j] = pair{i: i, s: scores[j]}
	}
	// Partial selection sort is fine at these sizes and is deterministic.
	if k > len(ps) {
		k = len(ps)
	}
	for a := 0; a < k; a++ {
		best := a
		for b := a + 1; b < len(ps); b++ {
			if ps[b].s > ps[best].s {
				best = b
			}
		}
		ps[a], ps[best] = ps[best], ps[a]
	}
	out := make([]int, k)
	for a := 0; a < k; a++ {
		out[a] = ps[a].i
	}
	return out
}

func remove(from, drop []int) []int {
	dropSet := make(map[int]bool, len(drop))
	for _, i := range drop {
		dropSet[i] = true
	}
	out := from[:0]
	for _, i := range from {
		if !dropSet[i] {
			out = append(out, i)
		}
	}
	return out
}
