package baselines

import (
	"errors"

	"repro/internal/classifier"
	"repro/internal/dataset"
	"repro/internal/dtree"
	"repro/internal/nn"
	"repro/internal/rules"
)

// HoloCleanConfig controls the HoloClean adaptation of Section 7.3.
type HoloCleanConfig struct {
	// Trees is the random-forest size generating the two-sided labeling
	// rules (default 10, "we apply random forest to generate the labeling
	// rules" as in [28]).
	Trees int
	// MaxDepth bounds rule length (default 4, as in the paper's setup).
	MaxDepth int
	// MinLeaf is the minimum samples per leaf (default 5, as in the
	// paper's setup).
	MinLeaf int
	// MaxRules caps the number of labeling rules used as factors, to stay
	// "very close to the number of one-sided rules generated by
	// LearnRisk"; 0 keeps all.
	MaxRules int
	// Epochs and LR drive the factor-weight learning (defaults 60, 0.05).
	Epochs int
	LR     float64
	Seed   uint64
}

func (c HoloCleanConfig) withDefaults() HoloCleanConfig {
	if c.Trees == 0 {
		c.Trees = 10
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 4
	}
	if c.MinLeaf == 0 {
		c.MinLeaf = 5
	}
	if c.Epochs == 0 {
		c.Epochs = 60
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// HoloClean adapts HoloClean-style probabilistic inference to risk
// analysis: two-sided labeling rules from a random forest act as the
// integrity constraints (factors) over the pairs; factor weights are
// learned with the noisy machine labels as weak supervision (logistic
// regression over rule firings, mirroring HoloClean's weight learning);
// the inferred probability of the suggested status then indicates the risk
// of each machine label being wrong. Rules that directly encode the DNN
// output are included as one extra signal, as in the paper's setup.
//
// trainIdx supplies the labeled data the forest learns the rules from;
// test is the machine labeling to be risk-ranked over the workload w with
// metric catalog columns given by X rows aligned to test.Idx.
func HoloClean(w *dataset.Workload, trainIdx []int, trainX [][]float64,
	testX [][]float64, names []string, test classifier.Labeled, cfg HoloCleanConfig) ([]float64, []rules.Rule, error) {

	cfg = cfg.withDefaults()
	if len(trainIdx) == 0 || len(testX) != len(test.Idx) {
		return nil, nil, errors.New("baselines: holoclean needs training rows and aligned test rows")
	}
	y := make([]bool, len(trainIdx))
	for j, i := range trainIdx {
		y[j] = w.Pairs[i].Match
	}
	rows := make([]int, len(trainIdx))
	for j := range rows {
		rows[j] = j
	}
	forest := dtree.BuildForest(trainX, y, rows, names, cfg.Trees, dtree.CARTConfig{
		MaxDepth: cfg.MaxDepth, MinLeaf: cfg.MinLeaf, Seed: cfg.Seed,
	})
	labelRules := forest.Rules()
	if cfg.MaxRules > 0 && len(labelRules) > cfg.MaxRules {
		labelRules = labelRules[:cfg.MaxRules] // Dedup sorts by support
	}
	if len(labelRules) == 0 {
		return nil, nil, errors.New("baselines: forest produced no labeling rules")
	}

	// Factor features per test pair: one signed indicator per rule
	// (+1 the rule suggests matching, -1 unmatching, 0 silent), plus the
	// DNN output as an extra signal.
	featurize := func(x []float64, prob float64) []float64 {
		f := make([]float64, len(labelRules)+1)
		for r := range labelRules {
			if labelRules[r].Fires(x) {
				if labelRules[r].Match {
					f[r] = 1
				} else {
					f[r] = -1
				}
			}
		}
		f[len(labelRules)] = prob
		return f
	}
	feats := make([][]float64, len(testX))
	targets := make([]float64, len(testX))
	for k := range testX {
		feats[k] = featurize(testX[k], test.Prob[k])
		if test.Label[k] {
			targets[k] = 1
		}
	}

	// Weight learning against the (noisy) machine labels — HoloClean
	// treats observed values as weak evidence and learns factor weights
	// by gradient descent; logistic regression is that learning step.
	lr, err := nn.New(nn.Config{
		Inputs: len(labelRules) + 1, Hidden: nil, LR: cfg.LR,
		Epochs: cfg.Epochs, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	if err := lr.Fit(feats, targets, nil); err != nil {
		return nil, nil, err
	}

	// Risk: inferred probability that the suggested status contradicts
	// the machine label.
	out := make([]float64, len(testX))
	for k := range feats {
		p := lr.Predict(feats[k]) // inferred matching probability
		if test.Label[k] {
			out[k] = 1 - p
		} else {
			out[k] = p
		}
	}
	return out, labelRules, nil
}
