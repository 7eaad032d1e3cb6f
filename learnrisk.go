// Package learnrisk is the public API of this repository's reproduction of
// "Towards Interpretable and Learnable Risk Analysis for Entity Resolution"
// (Chen et al., SIGMOD 2020). The pipeline is split into a train-once,
// serve-anywhere shape around a first-class trained artifact, the Model:
//
//	w, _ := learnrisk.Generate("DS", 0.05, 42)
//	model, _ := learnrisk.Train(ctx, w, learnrisk.Options{})
//
//	// Evaluate reproduces the paper's protocol on the held-out test split.
//	report, _ := model.Evaluate(w, model.TestPairs())
//	for _, rp := range report.Ranking[:10] {
//	    fmt.Println(rp.Risk, report.Explain(rp)[0])
//	}
//
//	// The serving path risk-scores fresh candidate pairs concurrently,
//	// without retraining.
//	scores, _ := model.ScoreBatch(pairs)
//
//	// The artifact persists: train once, serve anywhere.
//	model.Save(f)
//	model2, _ := learnrisk.Load(f) // scores bit-identically to model
//
// Run bundles Train+Evaluate for one-shot experiments. Training accepts a
// context.Context (cancellation is checked between epochs) and an optional
// progress callback via Options.Progress.
//
// The import path of this package is "repro"; the package name is
// learnrisk.
package learnrisk

import (
	"context"
	"errors"
	"fmt"
	"os"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/rules"
)

// Workload bundles an ER candidate-pair workload with the basic-metric
// catalog derived from its schema (the paper's per-dataset metric design).
type Workload struct {
	inner *dataset.Workload
	cat   *metrics.Catalog
}

// Name returns the workload's name.
func (w *Workload) Name() string { return w.inner.Name }

// Size returns the number of materialized candidate pairs: 0 for a
// LoadTablesCSV workload, whose pairs are blocked lazily.
func (w *Workload) Size() int { return len(w.inner.Pairs) }

// Matches returns the number of ground-truth equivalent pairs.
func (w *Workload) Matches() int { return w.inner.MatchCount() }

// Attributes returns the schema arity.
func (w *Workload) Attributes() int { return len(w.inner.Left.Schema.Attrs) }

// PairValues returns the two records of candidate pair i as attribute-value
// slices (for display).
func (w *Workload) PairValues(i int) (left, right []string) { return w.inner.Values(i) }

// AttrNames returns the schema's attribute names.
func (w *Workload) AttrNames() []string { return w.inner.Left.Schema.AttrNames() }

// NumLeftRecords returns the size of the workload's left table.
func (w *Workload) NumLeftRecords() int { return len(w.inner.Left.Records) }

// NumRightRecords returns the size of the workload's right table.
func (w *Workload) NumRightRecords() int { return len(w.inner.Right.Records) }

// LeftRecordAt returns a copy of the i-th left-table record's raw attribute
// values plus its entity ID ("" when the dataset carries no ground truth).
// Together with RightRecordAt it exposes the workload's records to online
// consumers: the streaming example feeds a match store one record at a time
// from these and checks resolved matches against the entity IDs.
func (w *Workload) LeftRecordAt(i int) (values []string, entityID string) {
	r := w.inner.Left.Records[i]
	return append([]string(nil), r.Values...), r.EntityID
}

// RightRecordAt returns a copy of the i-th right-table record's raw
// attribute values plus its entity ID (see LeftRecordAt).
func (w *Workload) RightRecordAt(i int) (values []string, entityID string) {
	r := w.inner.Right.Records[i]
	return append([]string(nil), r.Values...), r.EntityID
}

// Generate synthesizes one of the paper's benchmark-shaped workloads
// ("DS", "AB", "AG", "SG", "DA" — see Table 2) at the given scale
// (1.0 = full Table 2 size) with a deterministic seed.
func Generate(profile string, scale float64, seed uint64) (*Workload, error) {
	spec, ok := datagen.ByName(profile, seed)
	if !ok {
		return nil, fmt.Errorf("learnrisk: unknown profile %q (want one of %v)", profile, datagen.Names())
	}
	inner, err := datagen.Generate(spec, scale)
	if err != nil {
		return nil, err
	}
	return wrap(inner), nil
}

func wrap(inner *dataset.Workload) *Workload {
	return &Workload{inner: inner, cat: inner.Left.Schema.Catalog(inner.Left, inner.Right)}
}

// Attr describes one schema attribute for LoadCSV: a name and a value type,
// one of "entity-name", "entity-set", "text", "numeric", "categorical".
type Attr struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

func parseAttrType(s string) (metrics.AttrType, error) {
	switch s {
	case "entity-name":
		return metrics.EntityName, nil
	case "entity-set":
		return metrics.EntitySet, nil
	case "text":
		return metrics.Text, nil
	case "numeric":
		return metrics.Numeric, nil
	case "categorical":
		return metrics.Categorical, nil
	}
	return 0, fmt.Errorf("learnrisk: unknown attribute type %q", s)
}

// loadTableCSVs reads the two table CSVs of a workload under the schema
// described by attrs — the shared front half of LoadCSV and LoadTablesCSV.
func loadTableCSVs(name, leftPath, rightPath string, attrs []Attr) (left, right *dataset.Table, err error) {
	if len(attrs) == 0 {
		return nil, nil, errors.New("learnrisk: schema attrs required")
	}
	schema := &dataset.Schema{Name: name}
	for _, a := range attrs {
		t, err := parseAttrType(a.Type)
		if err != nil {
			return nil, nil, err
		}
		schema.Attrs = append(schema.Attrs, dataset.Attr{Name: a.Name, Type: t})
	}
	readTable := func(path, tname string) (*dataset.Table, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return dataset.ReadTableCSV(f, tname, schema)
	}
	if left, err = readTable(leftPath, name+"-left"); err != nil {
		return nil, nil, err
	}
	if right, err = readTable(rightPath, name+"-right"); err != nil {
		return nil, nil, err
	}
	return left, right, nil
}

// LoadCSV loads a workload from two table CSVs (columns: id, entity_id,
// then one per attribute) and, optionally, a pairs CSV (left_id, right_id,
// match). When pairsPath is empty, candidate pairs are produced by token
// blocking and ground truth is taken from the entity_id columns.
func LoadCSV(name, leftPath, rightPath, pairsPath string, attrs []Attr) (*Workload, error) {
	left, right, err := loadTableCSVs(name, leftPath, rightPath, attrs)
	if err != nil {
		return nil, err
	}
	inner := &dataset.Workload{Name: name, Left: left, Right: right}
	if pairsPath == "" {
		inner.Pairs = blocking.Candidates(left, right, blocking.Config{})
	} else {
		f, err := os.Open(pairsPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		pairs, err := dataset.ReadPairsCSV(f, left, right)
		if err != nil {
			return nil, err
		}
		inner.Pairs = pairs
	}
	if err := inner.Validate(); err != nil {
		return nil, err
	}
	return wrap(inner), nil
}

// LoadTablesCSV loads a tables-only workload: the two table CSVs, no
// materialized candidate-pair list. Train, Run and Evaluate produce its
// candidate pairs lazily by token blocking — the same pairs, in the same
// order, LoadCSV with an empty pairsPath materializes — so the list is
// never held in memory at once, and reports and saved models are
// bit-identical to LoadCSV's. The workload's Size reports 0, and the
// accessors that index the pair list (PairValues, ActiveLearn) need a
// LoadCSV workload.
func LoadTablesCSV(name, leftPath, rightPath string, attrs []Attr) (*Workload, error) {
	left, right, err := loadTableCSVs(name, leftPath, rightPath, attrs)
	if err != nil {
		return nil, err
	}
	inner := &dataset.Workload{Name: name, Left: left, Right: right}
	if err := inner.Validate(); err != nil {
		return nil, err
	}
	return wrap(inner), nil
}

// Options configures training. Zero values take the paper's defaults;
// explicit non-zero values are validated loudly by Train and Run.
type Options struct {
	// SplitRatio is "train:validation:test" (default "3:2:5"; Section 7.1).
	SplitRatio string `json:"split_ratio"`
	// VaRConfidence is the risk metric's theta, in (0,1) (default 0.9).
	VaRConfidence float64 `json:"var_confidence"`
	// RuleDepth bounds risk-feature rule length, in [1,8] (default 3; the
	// paper keeps rules short for interpretability).
	RuleDepth int `json:"rule_depth"`
	// RiskEpochs is the risk-model training budget (default 1000).
	RiskEpochs int `json:"risk_epochs"`
	// ClassifierEpochs is the matcher training budget (default 40).
	ClassifierEpochs int `json:"classifier_epochs"`
	// Seed makes the whole run deterministic (default 1).
	Seed uint64 `json:"seed"`
	// Progress, when set, receives coarse training progress: the stage
	// ("classifier", "rules", "risk") and its (done, total) counts. Called
	// on the goroutine that called Train or Run; keep it fast. Not part of
	// the persisted artifact.
	Progress func(stage string, done, total int) `json:"-"`
}

func (o Options) withDefaults() Options {
	if o.SplitRatio == "" {
		o.SplitRatio = "3:2:5"
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Validate checks the options for nonsense values and returns a descriptive
// error instead of silently misbehaving downstream. Zero values are valid
// (they select the documented defaults).
func (o Options) Validate() error {
	if o.RuleDepth < 0 {
		return fmt.Errorf("learnrisk: RuleDepth %d is negative; want 0 (default) or a depth in [1,8]", o.RuleDepth)
	}
	if o.RuleDepth > 8 {
		return fmt.Errorf("learnrisk: RuleDepth %d is past any interpretable rule length; want a depth in [1,8] (the paper keeps h <= 4)", o.RuleDepth)
	}
	if o.RiskEpochs < 0 {
		return fmt.Errorf("learnrisk: RiskEpochs %d is negative; want 0 (default 1000) or a positive budget", o.RiskEpochs)
	}
	if o.ClassifierEpochs < 0 {
		return fmt.Errorf("learnrisk: ClassifierEpochs %d is negative; want 0 (default 40) or a positive budget", o.ClassifierEpochs)
	}
	if o.VaRConfidence != 0 && (o.VaRConfidence <= 0 || o.VaRConfidence >= 1) {
		return fmt.Errorf("learnrisk: VaRConfidence %v outside (0,1); it is the VaR confidence level theta (default 0.9)", o.VaRConfidence)
	}
	if o.SplitRatio != "" {
		if _, _, _, err := dataset.ParseRatio(o.SplitRatio); err != nil {
			return fmt.Errorf("learnrisk: SplitRatio %q is malformed: %w", o.SplitRatio, err)
		}
	}
	return nil
}

// RankedPair is one row of the risk ranking.
type RankedPair struct {
	PairIndex  int     // index into the workload's candidate pairs
	Risk       float64 // VaR risk of being mislabeled
	Prob       float64 // classifier output
	Match      bool    // machine label
	Mislabeled bool    // ground truth says the machine label is wrong
}

// Report is the outcome of evaluating a trained Model on one labeled set of
// pairs (Run's test split, or any split handed to Model.Evaluate).
type Report struct {
	// Ranking lists the evaluated pairs by descending risk.
	Ranking []RankedPair
	// AUROC is the risk ranking's quality against ground truth.
	AUROC float64
	// ClassifierF1 and ClassifierAccuracy describe the machine classifier
	// on the evaluated pairs.
	ClassifierF1       float64
	ClassifierAccuracy float64
	// Mislabels is the number of mislabeled evaluated pairs.
	Mislabels int
	// NumFeatures is the number of generated rule risk features.
	NumFeatures int
	// RuleCoverage is the fraction of evaluated pairs on which at least one
	// rule feature fires.
	RuleCoverage float64

	model    *core.Model
	features []rules.Rule
	artifact *Model
	insts    map[int]core.Instance // by pair index
}

// Run executes the full LearnRisk pipeline on the workload: Train followed
// by Evaluate on the test part of the split. Use Train directly when the
// model should be reused (served, persisted, or evaluated on several
// splits).
func Run(w *Workload, opts Options) (*Report, error) {
	return RunCtx(context.Background(), w, opts)
}

// RunCtx is Run with cooperative cancellation and progress reporting (see
// Train). Memory holds the training and validation rows, a few bytes per
// candidate pair and one window of the candidate stream: the test rows are
// computed and scored window by window.
func RunCtx(ctx context.Context, w *Workload, opts Options) (*Report, error) {
	m, err := Train(ctx, w, opts)
	if err != nil {
		return nil, err
	}
	return m.evaluate(w, m.TestPairs())
}

// Explain returns the interpretable decomposition of one ranked pair's
// risk: each contributing risk feature with its weight share in the pair's
// portfolio, most influential first.
//
// The nil contract: Explain returns nil exactly when rp's PairIndex was not
// part of this report's evaluation. For every evaluated pair the result is
// non-empty — the classifier-output feature always contributes. Use
// ExplainIndex to distinguish the two cases explicitly.
func (r *Report) Explain(rp RankedPair) []string {
	out, _ := r.ExplainIndex(rp.PairIndex)
	return out
}

// ExplainIndex explains the risk of the pair with the given workload pair
// index. The boolean reports whether the pair was part of this report's
// evaluation: (nil, false) means an unknown pair, while a known pair always
// yields at least the classifier-output contribution.
func (r *Report) ExplainIndex(pairIndex int) ([]string, bool) {
	inst, ok := r.insts[pairIndex]
	if !ok {
		return nil, false
	}
	var out []string
	for _, c := range r.model.Explain(inst) {
		out = append(out, fmt.Sprintf("share=%.2f mu=%.3f sigma=%.3f  %s",
			c.Share, c.Mu, c.Sigma, c.Description))
	}
	return out, true
}

// Features renders the generated risk features, strongest support first.
func (r *Report) Features() []string {
	out := make([]string, len(r.features))
	for i := range r.features {
		out[i] = r.features[i].String()
	}
	return out
}

// Model returns the trained artifact behind this report, for reuse on
// fresh pairs (Score/ScoreBatch), other splits (Evaluate), or persistence
// (Save).
func (r *Report) Model() *Model { return r.artifact }
