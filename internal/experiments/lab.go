// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 7 and Figure 14 of Section 8) on the synthetic
// benchmark-shaped workloads. Each runner returns structured results;
// print.go renders them as the rows/series the paper reports. The bench
// harness (bench_test.go at the repository root) and cmd/experiments both
// drive this package.
//
// The LearnRisk method runs the training stages of internal/pipeline, the
// ones the facade's Train runs: a Lab trains its classifier and generates
// its risk features once, and every risk model is a pipeline.Fit over
// them. Rows come from the lab's featstore.Store, a table that one
// featstore.Streamer pass fills: the row computation Train streams, kept
// whole so every method and sweep reads its rows by pair index.
package experiments

import (
	"context"
	"fmt"

	"repro/internal/baselines"
	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/dtree"
	"repro/internal/eval"
	"repro/internal/featstore"
	"repro/internal/metrics"
	"repro/internal/pipeline"
)

// Settings scales the experiments. Quick is sized for unit tests and CI;
// Default for regenerating the figures on a laptop.
type Settings struct {
	Scale            float64 // dataset scale relative to Table 2
	Seed             uint64
	ClassifierEpochs int
	RiskEpochs       int
	EnsembleSize     int // Uncertainty's bootstrap models (paper: 20)
	RuleGen          dtree.OneSidedConfig
}

// Quick returns test-sized settings.
func Quick() Settings {
	return Settings{
		Scale: 0.02, Seed: 1, ClassifierEpochs: 15, RiskEpochs: 150,
		EnsembleSize: 5, RuleGen: dtree.OneSidedConfig{MaxDepth: 2, BranchFactor: 4},
	}
}

// Default returns laptop-scale settings used to regenerate the figures:
// 10% of Table 2 sizes, the paper's 20-model ensemble and its 1000-epoch
// risk-training budget.
func Default() Settings {
	return Settings{
		Scale: 0.1, Seed: 1, ClassifierEpochs: 40, RiskEpochs: 1000,
		EnsembleSize: 20, RuleGen: dtree.OneSidedConfig{MaxDepth: 3, BranchFactor: 6},
	}
}

// Lab is one prepared experimental setup: a generated workload, its split,
// a trained classifier with its labelings, and the risk features generated
// from the classifier's training data — everything the five risk methods
// consume. All metric matrices are views into the lab's feature store, so
// repeated evaluations (subsample sweeps, ensemble members, sensitivity
// curves) never recompute a pair's metrics.
type Lab struct {
	Settings Settings
	W        *dataset.Workload
	Cat      *metrics.Catalog
	Store    *featstore.Store
	Split    dataset.Split
	Matcher  *classifier.Matcher
	Features pipeline.Features
	ValidLab classifier.Labeled
	TestLab  classifier.Labeled
	TrainX   [][]float64
	ValidX   [][]float64
	TestX    [][]float64
	TrainY   []bool
}

// NewLab generates the profile's workload at the settings' scale, splits it
// by ratio, and trains the classifier and generates the risk features on
// the training part.
func NewLab(profile, ratio string, s Settings) (*Lab, error) {
	spec, ok := datagen.ByName(profile, s.Seed)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown profile %q", profile)
	}
	w, err := datagen.Generate(spec, s.Scale)
	if err != nil {
		return nil, err
	}
	return newLabFrom(w, ratio, s)
}

func newLabFrom(w *dataset.Workload, ratio string, s Settings) (*Lab, error) {
	cat := w.Left.Schema.Catalog(w.Left, w.Right)
	split, err := w.SplitPairs(ratio, s.Seed)
	if err != nil {
		return nil, err
	}
	return newLabFromSplit(w, cat, split, s)
}

func newLabFromSplit(w *dataset.Workload, cat *metrics.Catalog, split dataset.Split, s Settings) (*Lab, error) {
	store := featstore.New(w, cat)
	trainX := store.Rows(split.Train)
	trainY := make([]bool, len(split.Train))
	for k, i := range split.Train {
		trainY[k] = w.Pairs[i].Match
	}
	m, feats, err := pipeline.MatcherAndFeatures(context.Background(), cat, trainX, trainY, classifier.Config{
		Epochs: s.ClassifierEpochs, Seed: s.Seed,
	}, s.RuleGen, nil)
	if err != nil {
		return nil, err
	}
	validX := store.Rows(split.Valid)
	testX := store.Rows(split.Test)
	return &Lab{
		Settings: s, W: w, Cat: cat, Store: store, Split: split, Matcher: m, Features: feats,
		ValidLab: m.LabelRows(w, split.Valid, validX),
		TestLab:  m.LabelRows(w, split.Test, testX),
		TrainX:   trainX,
		ValidX:   validX,
		TestX:    testX,
		TrainY:   trainY,
	}, nil
}

// Mislabels returns the ground-truth risk labels of the test part.
func (l *Lab) Mislabels() []bool {
	out := make([]bool, len(l.TestLab.Idx))
	for k := range l.TestLab.Idx {
		out[k] = l.TestLab.Mislabeled(k)
	}
	return out
}

// riskConfig is the risk-model configuration of every LearnRisk fit in
// the lab.
func (l *Lab) riskConfig() core.Config {
	return core.Config{Epochs: l.Settings.RiskEpochs, Seed: l.Settings.Seed}
}

// LearnRiskScores runs the full LearnRisk method: the lab's risk features,
// a model trained on riskTrain (defaults to the validation part when nil),
// scores for the test part.
func (l *Lab) LearnRiskScores(riskTrainIdx []int) ([]float64, error) {
	X, lab := l.ValidX, l.ValidLab
	if riskTrainIdx != nil {
		X = l.Store.Rows(riskTrainIdx)
		lab = l.Matcher.LabelRows(l.W, riskTrainIdx, X)
	}
	model, err := pipeline.Fit(context.Background(), l.Features, X, lab, l.riskConfig(), nil)
	if err != nil {
		return nil, err
	}
	return pipeline.Risks(model, l.Features, l.TestX, l.TestLab), nil
}

// BaselineScores runs the Baseline method [31] on the test part.
func (l *Lab) BaselineScores() []float64 { return baselines.Baseline(l.TestLab) }

// UncertaintyScores runs the Uncertainty method [40] on the test part.
// Bootstrap members train on store views of the training rows, and every
// member votes on the same precomputed test rows.
func (l *Lab) UncertaintyScores() ([]float64, error) {
	e, err := classifier.TrainEnsembleRows(l.W, l.Cat, l.Split.Train, l.TrainX, l.Settings.EnsembleSize,
		classifier.Config{Epochs: l.Settings.ClassifierEpochs / 2, Seed: l.Settings.Seed + 100})
	if err != nil {
		return nil, err
	}
	return baselines.UncertaintyRows(e, l.TestX), nil
}

// TrustScoreScores runs the TrustScore method [35] on the test part.
func (l *Lab) TrustScoreScores() []float64 {
	return baselines.TrustScoresRows(l.Matcher, l.TrainX, l.TrainY, l.TestLab, l.TestX, 5)
}

// StaticRiskScores runs the StaticRisk method [14] on the test part.
func (l *Lab) StaticRiskScores() []float64 {
	return baselines.StaticRisk(l.TestLab, l.ValidLab, baselines.StaticRiskConfig{})
}

// HoloCleanScores runs the HoloClean adaptation on the labeled pairs with
// metric rows X.
func (l *Lab) HoloCleanScores(X [][]float64, lab classifier.Labeled) ([]float64, error) {
	scores, _, err := baselines.HoloClean(l.W, l.Split.Train, l.TrainX, X,
		l.Cat.Names(), lab, baselines.HoloCleanConfig{Seed: l.Settings.Seed})
	return scores, err
}

// MethodNames lists the Figure 9 methods in legend order.
func MethodNames() []string {
	return []string{"Baseline", "Uncertainty", "TrustScore", "StaticRisk", "LearnRisk"}
}

// AllScores computes every Figure 9 method's risk scores on the test part.
func (l *Lab) AllScores() (map[string][]float64, error) {
	unc, err := l.UncertaintyScores()
	if err != nil {
		return nil, fmt.Errorf("uncertainty: %w", err)
	}
	lr, err := l.LearnRiskScores(nil)
	if err != nil {
		return nil, fmt.Errorf("learnrisk: %w", err)
	}
	return map[string][]float64{
		"Baseline":    l.BaselineScores(),
		"Uncertainty": unc,
		"TrustScore":  l.TrustScoreScores(),
		"StaticRisk":  l.StaticRiskScores(),
		"LearnRisk":   lr,
	}, nil
}

// AUROCs evaluates a score map against the test part's mislabels.
func (l *Lab) AUROCs(scores map[string][]float64) map[string]float64 {
	bad := l.Mislabels()
	out := make(map[string]float64, len(scores))
	for name, s := range scores {
		out[name] = eval.AUROC(s, bad)
	}
	return out
}
