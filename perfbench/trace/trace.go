// Package trace is the benchmark's traced pass. It composes the layers of
// the LearnRisk pipeline in the facade's call order, timing each call into a
// layer's exported functions, and checks that the composition reproduces
// the facade's output bit for bit, so the layer times add up to the run the
// end-to-end run measures. It also times the score ladder beneath
// Model.Score and replays a serving run's operations to count work the
// server does not export.
//
// Spans are recorded in memory around each layer call and written out at
// the end of the run; nothing inside the program is instrumented.
package trace

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"time"

	learnrisk "repro"
	"repro/internal/blocking"
	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dtree"
	"repro/internal/eval"
	"repro/internal/featstore"
	"repro/internal/metrics"
	"repro/internal/rules"
)

// Span is one timed call, in nanoseconds since the recorder started.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory and sums their durations by name.
type Recorder struct {
	t0     time.Time
	spans  []Span
	totals map[string]time.Duration
}

// NewRecorder starts a recorder.
func NewRecorder() *Recorder {
	return &Recorder{t0: time.Now(), totals: map[string]time.Duration{}}
}

// Begin opens a span and returns its ID; End closes it.
func (r *Recorder) Begin(parent int, name string) int {
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(r.t0))})
	return len(r.spans)
}

// End closes span id and adds its duration to its name's total.
func (r *Recorder) End(id int) time.Duration {
	s := &r.spans[id-1]
	s.End = int64(time.Since(r.t0))
	d := time.Duration(s.End - s.Start)
	r.totals[s.Name] += d
	return d
}

// Time runs fn inside a span.
func (r *Recorder) Time(parent int, name string, fn func()) {
	id := r.Begin(parent, name)
	fn()
	r.End(id)
}

// Total is the summed duration of every span with this name.
func (r *Recorder) Total(name string) time.Duration { return r.totals[name] }

// WriteSpans writes the spans as JSON lines.
func (r *Recorder) WriteSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// Report holds the exported content of a learnrisk.Report.
type Report struct {
	Ranking      []learnrisk.RankedPair
	AUROC        float64
	F1           float64
	Accuracy     float64
	Mislabels    int
	NumFeatures  int
	RuleCoverage float64
	Features     []string
}

// FromFacade copies the exported content of a facade report.
func FromFacade(r *learnrisk.Report) Report {
	return Report{
		Ranking: r.Ranking, AUROC: r.AUROC, F1: r.ClassifierF1, Accuracy: r.ClassifierAccuracy,
		Mislabels: r.Mislabels, NumFeatures: r.NumFeatures, RuleCoverage: r.RuleCoverage, Features: r.Features(),
	}
}

// Diff returns the first difference between two reports, or "" when they
// are identical bit for bit.
func Diff(got, want Report) string {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	switch {
	case len(got.Ranking) != len(want.Ranking):
		return fmt.Sprintf("ranking has %d pairs, want %d", len(got.Ranking), len(want.Ranking))
	case !same(got.AUROC, want.AUROC):
		return fmt.Sprintf("AUROC %v, want %v", got.AUROC, want.AUROC)
	case !same(got.F1, want.F1) || !same(got.Accuracy, want.Accuracy):
		return fmt.Sprintf("classifier F1/accuracy %v/%v, want %v/%v", got.F1, got.Accuracy, want.F1, want.Accuracy)
	case got.Mislabels != want.Mislabels || got.NumFeatures != want.NumFeatures:
		return fmt.Sprintf("mislabels/features %d/%d, want %d/%d", got.Mislabels, got.NumFeatures, want.Mislabels, want.NumFeatures)
	case !same(got.RuleCoverage, want.RuleCoverage):
		return fmt.Sprintf("rule coverage %v, want %v", got.RuleCoverage, want.RuleCoverage)
	case !slices.Equal(got.Features, want.Features):
		return "risk features differ"
	}
	for i, g := range got.Ranking {
		w := want.Ranking[i]
		if g.PairIndex != w.PairIndex || !same(g.Risk, w.Risk) || !same(g.Prob, w.Prob) || g.Match != w.Match || g.Mislabeled != w.Mislabeled {
			return fmt.Sprintf("ranking row %d is %+v, want %+v", i, g, w)
		}
	}
	return ""
}

// Model holds the trained layers of a traced composition, for the score
// ladder.
type Model struct {
	cat     *metrics.Catalog
	matcher *classifier.Matcher
	rset    *rules.RuleSet
	risk    *core.Model
}

// Batch layer names, in the facade's call order. Each is also the metric
// its summed time is reported under.
const (
	layerLoad     = "dataset.load_s"
	layerCatalog  = "metrics.catalog_s"
	layerBlocking = "blocking.candidates_s"
	layerRows     = "featstore.rows_s"
	layerTrain    = "classifier.train_s"
	layerLabel    = "classifier.label_s"
	layerRulegen  = "dtree.rulegen_s"
	layerCompile  = "rules.compile_s"
	layerApply    = "rules.apply_s"
	layerFit      = "core.fit_s"
	layerRiskAll  = "core.riskall_s"
	layerReport   = "learnrisk.report_s"
)

var batchLayers = []string{layerLoad, layerCatalog, layerBlocking, layerRows, layerTrain, layerLabel, layerRulegen, layerCompile, layerApply, layerFit, layerRiskAll, layerReport}

// Batch runs LoadCSV (with no pairs file) followed by RunCtx with default
// Options, one layer call at a time, under the recorder. The report must
// equal the facade's for the same inputs. The metrics are each layer's
// time, what the layers leave unattributed of the traced wall time, and
// the work counts.
func Batch(ctx context.Context, rec *Recorder, name, leftPath, rightPath string, attrs []learnrisk.Attr) (Report, *Model, map[string]float64, error) {
	// The default Options: split 3:2:5 and seed 1.
	const seed = 1
	var (
		rep Report
		err error
	)
	root := rec.Begin(0, "batch")

	// LoadCSV: read both tables under the schema, block, validate.
	var left, right *dataset.Table
	rec.Time(root, layerLoad, func() {
		schema := &dataset.Schema{Name: name}
		for _, a := range attrs {
			var t metrics.AttrType
			if t, err = attrType(a.Type); err != nil {
				return
			}
			schema.Attrs = append(schema.Attrs, dataset.Attr{Name: a.Name, Type: t})
		}
		if left, err = readTable(leftPath, name+"-left", schema); err != nil {
			return
		}
		right, err = readTable(rightPath, name+"-right", schema)
	})
	if err != nil {
		return rep, nil, nil, err
	}
	w := &dataset.Workload{Name: name, Left: left, Right: right}
	rec.Time(root, layerBlocking, func() { w.Pairs = blocking.Candidates(left, right, blocking.Config{}) })
	var split dataset.Split
	rec.Time(root, layerLoad, func() {
		if err = w.Validate(); err != nil {
			return
		}
		split, err = w.SplitPairs("3:2:5", seed)
	})
	if err != nil {
		return rep, nil, nil, err
	}
	var cat *metrics.Catalog
	rec.Time(root, layerCatalog, func() { cat = w.Left.Schema.Catalog(w.Left, w.Right) })

	// Train: rows, classifier, rule generation, compilation, risk fit.
	var store *featstore.Store
	var trainX, validX, testX [][]float64
	rec.Time(root, layerRows, func() {
		store = featstore.New(w, cat)
		trainX = store.Rows(split.Train)
	})
	var matcher *classifier.Matcher
	rec.Time(root, layerTrain, func() {
		matcher, err = classifier.TrainRowsCtx(ctx, w, cat, split.Train, trainX, classifier.Config{Seed: seed}, nil)
	})
	if err != nil {
		return rep, nil, nil, err
	}
	trainY := make([]bool, len(split.Train))
	for k, i := range split.Train {
		trainY[k] = w.Pairs[i].Match
	}
	var feats []rules.Rule
	rec.Time(root, layerRulegen, func() {
		feats, err = dtree.GenerateRiskFeaturesCtx(ctx, trainX, trainY, cat.Names(), dtree.OneSidedConfig{})
	})
	if err != nil {
		return rep, nil, nil, err
	}
	var rset *rules.RuleSet
	rec.Time(root, layerCompile, func() { rset, err = rules.Compile(feats, store.Width()) })
	if err != nil {
		return rep, nil, nil, err
	}
	var stats []rules.Stat
	rec.Time(root, layerApply, func() { stats = rset.Stats(trainX, trainY) })
	var risk *core.Model
	rec.Time(root, layerFit, func() { risk, err = core.New(core.BuildFeatures(feats, stats), core.Config{Seed: seed}) })
	if err != nil {
		return rep, nil, nil, err
	}
	rec.Time(root, layerRows, func() { validX = store.Rows(split.Valid) })
	var validLab classifier.Labeled
	rec.Time(root, layerLabel, func() { validLab = matcher.LabelRows(w, split.Valid, validX) })
	var validFired [][]int
	rec.Time(root, layerApply, func() { validFired = rset.Apply(validX) })
	rec.Time(root, layerFit, func() {
		insts, bad := core.BuildInstances(validFired, validLab)
		if err = risk.FitCtx(ctx, insts, bad, nil); errors.Is(err, core.ErrNoTrainingSignal) {
			err = nil
		}
	})
	if err != nil {
		return rep, nil, nil, err
	}

	// Evaluate on the test split and assemble the report.
	rec.Time(root, layerRows, func() { testX = store.Rows(split.Test) })
	var testLab classifier.Labeled
	rec.Time(root, layerLabel, func() { testLab = matcher.LabelRows(w, split.Test, testX) })
	var fired [][]int
	rec.Time(root, layerApply, func() { fired = rset.Apply(testX) })
	var risks []float64
	var testBad []bool
	rec.Time(root, layerRiskAll, func() {
		var insts []core.Instance
		insts, testBad = core.BuildInstances(fired, testLab)
		risks = risk.RiskAll(insts)
	})
	rec.Time(root, layerReport, func() {
		rep = Report{
			AUROC: eval.AUROC(risks, testBad), F1: testLab.F1(), Accuracy: testLab.Accuracy(),
			Mislabels: testLab.MislabelCount(), NumFeatures: len(feats), RuleCoverage: coverage(fired),
		}
		for k := range risks {
			rep.Ranking = append(rep.Ranking, learnrisk.RankedPair{
				PairIndex: testLab.Idx[k], Risk: risks[k], Prob: testLab.Prob[k],
				Match: testLab.Label[k], Mislabeled: testBad[k],
			})
		}
		sort.SliceStable(rep.Ranking, func(a, b int) bool { return rep.Ranking[a].Risk > rep.Ranking[b].Risk })
		for i := range feats {
			rep.Features = append(rep.Features, feats[i].String())
		}
	})
	wall := rec.End(root)

	m := map[string]float64{
		"blocking.pairs":      float64(len(w.Pairs)),
		"blocking.match_frac": float64(w.MatchCount()) / float64(len(w.Pairs)),
		"featstore.rows":      float64(len(trainX) + len(validX) + len(testX)),
		"dtree.rules":         float64(len(feats)),
		"rules.coverage":      rep.RuleCoverage,
	}
	sum := 0.0
	for _, l := range batchLayers {
		m[l] = rec.Total(l).Seconds()
		sum += m[l]
	}
	m["learnrisk.unattributed_s"] = wall.Seconds() - sum
	return rep, &Model{cat: cat, matcher: matcher, rset: rset, risk: risk}, m, nil
}

func attrType(s string) (metrics.AttrType, error) {
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
	return 0, fmt.Errorf("unknown attribute type %q", s)
}

func readTable(path, name string, schema *dataset.Schema) (*dataset.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadTableCSV(f, name, schema)
}

// coverage is the fraction of rows with at least one rule firing.
func coverage(fired [][]int) float64 {
	if len(fired) == 0 {
		return 0
	}
	n := 0
	for _, f := range fired {
		if len(f) > 0 {
			n++
		}
	}
	return float64(n) / float64(len(fired))
}
