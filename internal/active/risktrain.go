package active

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dtree"
	"repro/internal/featstore"
	"repro/internal/metrics"
	"repro/internal/pipeline"
)

// RiskTrainConfig controls risk-aware classifier training, the second
// potential application sketched in paper Section 8 ("Model Training"):
// besides label consistency on the labeled instances, the classifier
// should minimize prediction risk on the unlabeled target instances. This
// implementation realizes that objective as risk-filtered self-training:
// target pairs whose machine labels carry low risk become pseudo-labeled
// training data, weighted by their confidence (1 - risk).
type RiskTrainConfig struct {
	// PseudoFraction is the fraction of target pairs adopted as
	// pseudo-labels, lowest risk first (default 0.5).
	PseudoFraction float64
	// MaxRisk caps the VaR risk of an adopted pseudo-label (default 0.3).
	MaxRisk float64
	// Classifier configures both the base and the retrained matcher.
	Classifier classifier.Config
	// Risk configures the risk model used for filtering.
	Risk core.Config
	// RuleGen configures risk-feature generation.
	RuleGen dtree.OneSidedConfig
	Seed    uint64
}

func (c RiskTrainConfig) withDefaults() RiskTrainConfig {
	if c.PseudoFraction == 0 {
		c.PseudoFraction = 0.5
	}
	if c.MaxRisk == 0 {
		c.MaxRisk = 0.3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Risk.Epochs == 0 {
		c.Risk.Epochs = 300
	}
	return c
}

// RiskTrainResult reports both matchers so callers can compare.
type RiskTrainResult struct {
	Base         *classifier.Matcher
	Retrained    *classifier.Matcher
	PseudoLabels int // target pairs adopted as pseudo-labeled data
}

// RiskAwareTrain trains a base classifier on the labeled pairs, risk-ranks
// its labels on the unlabeled target pairs, adopts the low-risk machine
// labels as pseudo-labels, and retrains on the union.
func RiskAwareTrain(w *dataset.Workload, cat *metrics.Catalog, labeled, target []int,
	cfg RiskTrainConfig) (*RiskTrainResult, error) {

	cfg = cfg.withDefaults()
	ctx := context.Background()
	st := featstore.New(w, cat)
	labeledX := st.Rows(labeled)
	y := make([]bool, len(labeled))
	for k, i := range labeled {
		y[k] = w.Pairs[i].Match
	}
	// Base classifier and risk features from the labeled data (truth known
	// there), then the risk model fitted on the base classifier's labels.
	base, feats, err := pipeline.MatcherAndFeatures(ctx, cat, labeledX, y, withSeed(cfg.Classifier, cfg.Seed), cfg.RuleGen, nil)
	if err != nil {
		return nil, fmt.Errorf("active: base training: %w", err)
	}
	model, err := pipeline.Fit(ctx, feats, labeledX, base.LabelRows(w, labeled, labeledX), cfg.Risk, nil)
	if err != nil {
		return nil, err
	}

	// Score the target pairs and adopt the safest machine labels.
	targetX := st.Rows(target)
	labTarget := base.LabelRows(w, target, targetX)
	risks := pipeline.Risks(model, feats, targetX, labTarget)

	order := make([]int, len(target))
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(a, b int) bool { return risks[order[a]] < risks[order[b]] })
	limit := int(cfg.PseudoFraction * float64(len(target)))

	// Retrain on labeled (true labels) plus pseudo-labeled target pairs,
	// whose flags are the machine labels (possibly wrong). Their metric rows
	// are already in the store.
	rows := append([][]float64(nil), labeledX...)
	for _, k := range order[:limit] {
		if risks[k] > cfg.MaxRisk {
			break
		}
		rows = append(rows, targetX[k])
		y = append(y, labTarget.Label[k])
	}

	retrained, err := classifier.TrainRowsFlagsCtx(ctx, cat, rows, y, withSeed(cfg.Classifier, cfg.Seed+1), nil)
	if err != nil {
		return nil, fmt.Errorf("active: retraining: %w", err)
	}
	return &RiskTrainResult{Base: base, Retrained: retrained, PseudoLabels: len(rows) - len(labeled)}, nil
}
