// Package pipeline holds the training stages of LearnRisk: risk features
// generated from the classifier's training data (paper Section 5), a VaR
// risk model fitted on labelled pairs (Section 4.3), and risk scores for the
// rest. The facade's Train, the figure reproductions of internal/experiments
// and the active-learning loops of internal/active all compose these
// stages; each caller supplies its own rows, labels and configs.
package pipeline

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/dtree"
	"repro/internal/metrics"
	"repro/internal/rules"
)

// Features are the risk features of one training set: the rules, their
// compiled form, and their prior-expectation statistics on the rows the
// rules were generated from.
type Features struct {
	Rules []rules.Rule
	Set   *rules.RuleSet
	Stats []rules.Stat
}

// Generate generates one-sided risk features from the training rows X with
// ground-truth flags y, compiles them at width len(names) and computes
// their statistics on (X, y). The context is checked at every tree node.
func Generate(ctx context.Context, X [][]float64, y []bool, names []string, cfg dtree.OneSidedConfig) (Features, error) {
	rs, err := dtree.GenerateRiskFeaturesCtx(ctx, X, y, names, cfg)
	if err != nil {
		return Features{}, fmt.Errorf("rule generation: %w", err)
	}
	return Compile(rs, len(names), X, y)
}

// Compile builds Features from rules made elsewhere: it compiles them at
// the given metric width and computes their statistics on (X, y).
func Compile(rs []rules.Rule, width int, X [][]float64, y []bool) (Features, error) {
	set, err := rules.Compile(rs, width)
	if err != nil {
		return Features{}, fmt.Errorf("rule compilation: %w", err)
	}
	return Features{Rules: rs, Set: set, Stats: set.Stats(X, y)}, nil
}

// MatcherAndFeatures trains the classifier on the rows X with flags y and
// generates the risk features from the same rows. Rule generation reads
// only X and y, so it runs on its own goroutine beside classifier training
// under a child context; however the call returns, rule generation is
// cancelled and joined first. A classifier failure is reported ahead of a
// rule-generation failure. progress, when set, receives the classifier's
// epochs as stage "classifier" and then ("rules", 1, 1), always on the
// calling goroutine.
func MatcherAndFeatures(ctx context.Context, cat *metrics.Catalog, X [][]float64, y []bool,
	ccfg classifier.Config, rcfg dtree.OneSidedConfig, progress func(stage string, done, total int)) (*classifier.Matcher, Features, error) {

	rulesCtx, cancelRules := context.WithCancel(ctx)
	rulesDone := make(chan struct{})
	var feats Features
	var rulesErr error
	go func() {
		defer close(rulesDone)
		feats, rulesErr = Generate(rulesCtx, X, y, cat.Names(), rcfg)
	}()
	defer func() {
		cancelRules()
		<-rulesDone
	}()

	matcher, err := classifier.TrainRowsFlagsCtx(ctx, cat, X, y, ccfg, stageProgress(progress, "classifier"))
	if err != nil {
		return nil, Features{}, fmt.Errorf("classifier training: %w", err)
	}
	<-rulesDone
	if rulesErr != nil {
		return nil, Features{}, rulesErr
	}
	if progress != nil {
		progress("rules", 1, 1)
	}
	return matcher, feats, nil
}

// Fit builds a risk model over the features and fits it on the labelled
// rows X. When the labelling carries no training signal — no mislabelled
// pair, or no correct one — the model keeps its initial parameters. The
// context is checked at every epoch; progress, when set, receives the
// epochs as stage "risk".
func Fit(ctx context.Context, f Features, X [][]float64, lab classifier.Labeled, cfg core.Config,
	progress func(stage string, done, total int)) (*core.Model, error) {

	model, err := core.New(core.BuildFeatures(f.Rules, f.Stats), cfg)
	if err != nil {
		return nil, err
	}
	insts, bad := core.BuildInstances(f.Set.Apply(X), lab)
	err = model.FitCtx(ctx, insts, bad, stageProgress(progress, "risk"))
	if err != nil && !errors.Is(err, core.ErrNoTrainingSignal) {
		return nil, fmt.Errorf("risk training: %w", err)
	}
	return model, nil
}

// Risks scores the labelled rows X with the model fitted over the features.
func Risks(model *core.Model, f Features, X [][]float64, lab classifier.Labeled) []float64 {
	insts, _ := core.BuildInstances(f.Set.Apply(X), lab)
	return model.RiskAll(insts)
}

// stageProgress adapts a staged progress callback to one stage's epoch
// stream.
func stageProgress(fn func(stage string, done, total int), stage string) func(done, total int) {
	if fn == nil {
		return nil
	}
	return func(done, total int) { fn(stage, done, total) }
}
