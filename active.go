package learnrisk

import (
	"context"
	"fmt"

	"repro/internal/active"
	"repro/internal/classifier"
	"repro/internal/dtree"
	"repro/internal/featstore"
)

// ActiveOptions configures risk-driven active learning (paper Section 8 /
// Figure 14). Zero values take the paper's settings.
type ActiveOptions struct {
	// Method selects pairs for labeling: "LeastConfidence", "Entropy" or
	// "LearnRisk" (default "LearnRisk").
	Method string
	// InitialSize is the seed labeled set (default 128, as in the paper).
	InitialSize int
	// BatchSize is the number of labels acquired per round (default 64).
	BatchSize int
	// Rounds is the number of acquisition rounds (default 9).
	Rounds int
	// TestFraction of the workload held out for the learning curve
	// (default 0.49).
	TestFraction float64
	// Seed makes the run deterministic.
	Seed uint64
}

// ActivePoint is one point of the learning curve: the classifier's F1 on
// the held-out test set after training on Size labeled pairs.
type ActivePoint struct {
	Size int
	F1   float64
}

// ActiveLearn runs the active-learning loop on the workload and returns the
// learning curve.
func ActiveLearn(w *Workload, opts ActiveOptions) ([]ActivePoint, error) {
	return ActiveLearnCtx(context.Background(), w, opts)
}

// ActiveLearnCtx is ActiveLearn with cooperative cancellation: the context
// is checked at every acquisition round and inside each round's classifier
// retraining, so a canceled context aborts the loop with an error
// satisfying errors.Is(err, ctx.Err()).
func ActiveLearnCtx(ctx context.Context, w *Workload, opts ActiveOptions) ([]ActivePoint, error) {
	if opts.Method == "" {
		opts.Method = string(active.LearnRisk)
	}
	if opts.TestFraction == 0 {
		opts.TestFraction = 0.49
	}
	if opts.TestFraction <= 0 || opts.TestFraction >= 1 {
		return nil, fmt.Errorf("learnrisk: TestFraction %v outside (0,1)", opts.TestFraction)
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	poolFrac := 1 - opts.TestFraction
	ratio := fmt.Sprintf("%f:0.01:%f", poolFrac-0.01, opts.TestFraction)
	split, err := w.inner.SplitPairs(ratio, opts.Seed)
	if err != nil {
		return nil, err
	}
	pool := append(append([]int(nil), split.Train...), split.Valid...)
	st := featstore.New(w.inner, w.cat)
	curve, err := active.RunCtx(ctx, w.inner, w.cat, st, pool, split.Test, active.Method(opts.Method), active.Config{
		InitialSize: opts.InitialSize,
		BatchSize:   opts.BatchSize,
		Rounds:      opts.Rounds,
		Classifier:  classifier.Config{Epochs: 25},
		RuleGen:     dtree.OneSidedConfig{MaxDepth: 2, BranchFactor: 4},
		Seed:        opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	out := make([]ActivePoint, len(curve))
	for i, p := range curve {
		out[i] = ActivePoint{Size: p.Size, F1: p.F1}
	}
	return out, nil
}
