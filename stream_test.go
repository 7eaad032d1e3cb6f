package learnrisk

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/blocking"
	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/dtree"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/featstore"
	"repro/internal/rules"
)

// streamOracleWorkloads builds the oracle fixture: the same two generated
// tables as (a) a materialized workload whose pairs come from token
// blocking — exactly what LoadCSV without a pairs file produces — and (b) a
// tables-only workload the pipeline blocks lazily.
func streamOracleWorkloads(t *testing.T) (materialized, tablesOnly *Workload) {
	t.Helper()
	gw := datagen.MustGenerate(datagen.DS(7), 0.03)
	pairs := blocking.Candidates(gw.Left, gw.Right, blocking.Config{})
	if len(pairs) < 200 {
		t.Fatalf("oracle fixture too sparse: %d blocked pairs", len(pairs))
	}
	materialized = wrap(&dataset.Workload{Name: "oracle", Left: gw.Left, Right: gw.Right, Pairs: pairs})
	tablesOnly = wrap(&dataset.Workload{Name: "oracle", Left: gw.Left, Right: gw.Right})
	return materialized, tablesOnly
}

// sameReport asserts byte-level equality of everything a Report exposes.
func sameReport(t *testing.T, label string, want, got *Report) {
	t.Helper()
	if want.AUROC != got.AUROC || want.ClassifierF1 != got.ClassifierF1 ||
		want.ClassifierAccuracy != got.ClassifierAccuracy || want.Mislabels != got.Mislabels ||
		want.NumFeatures != got.NumFeatures || want.RuleCoverage != got.RuleCoverage {
		t.Fatalf("%s: report scalars differ:\nwant %+v\ngot  %+v", label, want, got)
	}
	if len(want.Ranking) != len(got.Ranking) {
		t.Fatalf("%s: ranking lengths differ: %d vs %d", label, len(want.Ranking), len(got.Ranking))
	}
	for i := range want.Ranking {
		if want.Ranking[i] != got.Ranking[i] {
			t.Fatalf("%s: ranking[%d] differs: %+v vs %+v", label, i, want.Ranking[i], got.Ranking[i])
		}
	}
	wf, gf := want.Features(), got.Features()
	if strings.Join(wf, "\n") != strings.Join(gf, "\n") {
		t.Fatalf("%s: features differ:\n%v\nvs\n%v", label, wf, gf)
	}
	for _, rp := range want.Ranking[:min(5, len(want.Ranking))] {
		we, wok := want.ExplainIndex(rp.PairIndex)
		ge, gok := got.ExplainIndex(rp.PairIndex)
		if wok != gok || strings.Join(we, "\n") != strings.Join(ge, "\n") {
			t.Fatalf("%s: explanation of pair %d differs:\n%v\nvs\n%v", label, rp.PairIndex, we, ge)
		}
	}
}

func saveBytes(t *testing.T, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// referenceRows computes the metric rows of the given pairs of a
// materialized workload one pair at a time, each through a fresh
// featstore.ServeScratch: a row path that shares no windowing or record
// deduplication with the Streamer that Train and Evaluate run on.
func referenceRows(w *Workload, idx []int) [][]float64 {
	X := make([][]float64, len(idx))
	for k, i := range idx {
		l, r := w.inner.Values(i)
		X[k] = featstore.ComputeRowAppend(w.cat, nil, l, r, featstore.NewServeScratch(w.cat))
	}
	return X
}

// referenceTrain is the pair-by-pair composition of the LearnRisk pipeline
// the streamed Train must reproduce bit for bit: referenceRows over the
// materialized pair list, classifier.TrainRowsCtx on its training rows,
// LabelRows on its validation rows, and the compiled RuleSet's Stats and
// Apply.
func referenceTrain(t *testing.T, w *Workload, opts Options) *Model {
	t.Helper()
	ctx := context.Background()
	opts = opts.withDefaults()
	split, err := w.inner.SplitPairs(opts.SplitRatio, opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	trainX := referenceRows(w, split.Train)
	matcher, err := classifier.TrainRowsCtx(ctx, w.inner, w.cat, split.Train, trainX, classifier.Config{
		Epochs: opts.ClassifierEpochs, Seed: opts.Seed,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	trainY := make([]bool, len(split.Train))
	for k, i := range split.Train {
		trainY[k] = w.inner.Pairs[i].Match
	}
	feats, err := dtree.GenerateRiskFeaturesCtx(ctx, trainX, trainY, w.cat.Names(), dtree.OneSidedConfig{MaxDepth: opts.RuleDepth})
	if err != nil {
		t.Fatal(err)
	}
	rset, err := rules.Compile(feats, len(w.cat.Metrics))
	if err != nil {
		t.Fatal(err)
	}
	risk, err := core.New(core.BuildFeatures(feats, rset.Stats(trainX, trainY)), core.Config{
		Theta: opts.VaRConfidence, Epochs: opts.RiskEpochs, Seed: opts.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	validX := referenceRows(w, split.Valid)
	insts, bad := core.BuildInstances(rset.Apply(validX), matcher.LabelRows(w.inner, split.Valid, validX))
	if err := risk.FitCtx(ctx, insts, bad, nil); err != nil && !errors.Is(err, core.ErrNoTrainingSignal) {
		t.Fatal(err)
	}
	attrs := schemaAttrs(w)
	return &Model{
		attrs: attrs, fp: fingerprintOf(attrs, w.cat.Names()), opts: opts, cat: w.cat,
		matcher: matcher, feats: feats, rset: rset, risk: risk, split: split,
	}
}

// referenceEvaluate is Evaluate over referenceRows of the given pairs of a
// materialized workload.
func referenceEvaluate(m *Model, w *Workload, idx []int) *Report {
	X := referenceRows(w, idx)
	return m.assembleReport(m.matcher.LabelRows(w.inner, idx, X), m.rset.Apply(X))
}

// TestRunStreamMatchesRun is the pipeline's acceptance oracle: Run (lazy
// candidate stream -> windowed metric rows -> training and evaluation)
// must be bit-identical to the pair-by-pair reference — same pair order,
// same split, same report bytes, same saved artifact — whether the stream
// replays a materialized pair list or blocks the tables lazily.
func TestRunStreamMatchesRun(t *testing.T) {
	wm, ws := streamOracleWorkloads(t)
	opts := Options{RiskEpochs: 80, ClassifierEpochs: 10, Seed: 7}

	ref := referenceTrain(t, wm, opts)
	want := referenceEvaluate(ref, wm, ref.TestPairs())
	wantArt := saveBytes(t, ref)
	for _, tc := range []struct {
		name string
		w    *Workload
	}{{"materialized", wm}, {"tables-only", ws}} {
		got, err := Run(tc.w, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameReport(t, tc.name+" Run vs pair-by-pair reference", want, got)
		if !bytes.Equal(wantArt, saveBytes(t, got.Model())) {
			t.Fatalf("%s: Run's artifact bytes differ from the pair-by-pair reference's", tc.name)
		}
	}
}

// TestEvaluateStreamMatchesEvaluate: Train and Evaluate on either workload
// shape match the pair-by-pair reference for any index subset — including
// duplicates, which the streamed position map must fan out.
func TestEvaluateStreamMatchesEvaluate(t *testing.T) {
	wm, ws := streamOracleWorkloads(t)
	opts := Options{RiskEpochs: 80, ClassifierEpochs: 10, Seed: 7}
	ref := referenceTrain(t, wm, opts)
	idx := ref.TestPairs()
	idx = append(idx[:len(idx):len(idx)], idx[0], idx[0], idx[len(idx)/2])
	want := referenceEvaluate(ref, wm, idx)
	wantArt := saveBytes(t, ref)
	for _, tc := range []struct {
		name string
		w    *Workload
	}{{"materialized", wm}, {"tables-only", ws}} {
		m, err := Train(context.Background(), tc.w, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantArt, saveBytes(t, m)) {
			t.Fatalf("%s: Train's artifact bytes differ from the pair-by-pair reference's", tc.name)
		}
		got, err := m.Evaluate(tc.w, idx)
		if err != nil {
			t.Fatal(err)
		}
		sameReport(t, tc.name+" Evaluate vs pair-by-pair reference", want, got)
	}
}

// TestLabLearnRiskMatchesRun ties the figure reproductions to the facade:
// an experiments.Lab with Run's ratio, rule depth, epochs and seed yields
// the same rules, the same risk for every test pair and the same AUROC
// bits as Run.
func TestLabLearnRiskMatchesRun(t *testing.T) {
	s := experiments.Settings{
		Scale: 0.03, Seed: 2, ClassifierEpochs: 15, RiskEpochs: 150,
		RuleGen: dtree.OneSidedConfig{MaxDepth: 2},
	}
	for _, tc := range []struct{ profile, ratio string }{{"DS", "3:2:5"}, {"AB", "2:2:6"}, {"AG", "1:2:7"}} {
		name := tc.profile + " " + tc.ratio
		lab, err := experiments.NewLab(tc.profile, tc.ratio, s)
		if err != nil {
			t.Fatal(err)
		}
		w, err := Generate(tc.profile, s.Scale, s.Seed)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(w, Options{
			SplitRatio: tc.ratio, RuleDepth: s.RuleGen.MaxDepth,
			ClassifierEpochs: s.ClassifierEpochs, RiskEpochs: s.RiskEpochs, Seed: s.Seed,
		})
		if err != nil {
			t.Fatal(err)
		}

		labRules := make([]string, len(lab.Features.Rules))
		for i, r := range lab.Features.Rules {
			labRules[i] = r.String()
		}
		if got := rep.Features(); !slices.Equal(got, labRules) {
			t.Fatalf("%s: Run's rules\n%q\ndiffer from the lab's\n%q", name, got, labRules)
		}

		scores, err := lab.LearnRiskScores(nil)
		if err != nil {
			t.Fatal(err)
		}
		risk := make(map[int]float64, len(rep.Ranking))
		for _, rp := range rep.Ranking {
			risk[rp.PairIndex] = rp.Risk
		}
		if len(risk) != len(lab.TestLab.Idx) {
			t.Fatalf("%s: Run ranks %d pairs, the lab's test part has %d", name, len(risk), len(lab.TestLab.Idx))
		}
		for k, i := range lab.TestLab.Idx {
			got, ok := risk[i]
			if !ok || math.Float64bits(got) != math.Float64bits(scores[k]) {
				t.Fatalf("%s: pair %d: Run's risk %v (ranked %v), the lab's %v", name, i, got, ok, scores[k])
			}
		}
		if lr := eval.AUROC(scores, lab.Mislabels()); math.Float64bits(lr) != math.Float64bits(rep.AUROC) {
			t.Fatalf("%s: lab AUROC %v, Run's %v", name, lr, rep.AUROC)
		}
	}
}

func TestTrainStreamCancellation(t *testing.T) {
	_, ws := streamOracleWorkloads(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Train(ctx, ws, Options{ClassifierEpochs: 5, RiskEpochs: 10}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a context.Canceled chain", err)
	}
}

func TestStreamErrorPaths(t *testing.T) {
	wm, ws := streamOracleWorkloads(t)
	if _, err := Train(context.Background(), ws, Options{RuleDepth: -1}); err == nil {
		t.Error("invalid options should fail")
	}
	m, err := Train(context.Background(), wm, Options{RiskEpochs: 40, ClassifierEpochs: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Evaluate(ws, nil); err == nil {
		t.Error("empty index set should fail")
	}
	if _, err := m.Evaluate(ws, []int{-1}); err == nil {
		t.Error("negative index should fail")
	}
	if _, err := m.Evaluate(wm, []int{wm.Size()}); err == nil {
		t.Error("out-of-range index on a materialized workload should fail")
	}
	// On a tables-only workload an index beyond the stream's end is only
	// detectable after the stream ends.
	if _, err := m.Evaluate(ws, []int{1 << 30}); err == nil {
		t.Error("index beyond the candidate stream should fail")
	}
	// Schema mismatch.
	other, err := Generate("AG", 0.02, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Evaluate(other, []int{0}); err == nil {
		t.Error("mismatched schema should fail")
	}
}

// TestLoadTablesCSVStreamsLoadCSVPairs: the tables-only loader plus lazy
// blocking reproduces LoadCSV's blocked pair list exactly.
func TestLoadTablesCSVStreamsLoadCSVPairs(t *testing.T) {
	dir := t.TempDir()
	leftCSV := "id,entity_id,title,year\nl0,e0,spatial join methods,1993\nl1,e1,query optimization,1998\nl2,e2,spatial query methods,1995\n"
	rightCSV := "id,entity_id,title,year\nr0,e0,spatial join methods survey,1993\nr1,e1,query optimization techniques,1998\nr2,e9,spatial indexing,1995\n"
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	lp := write("left.csv", leftCSV)
	rp := write("right.csv", rightCSV)
	attrs := []Attr{{Name: "title", Type: "text"}, {Name: "year", Type: "numeric"}}

	blocked, err := LoadCSV("csvtest", lp, rp, "", attrs)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := LoadTablesCSV("csvtest", lp, rp, attrs)
	if err != nil {
		t.Fatal(err)
	}
	if tables.Size() != 0 {
		t.Errorf("tables-only workload reports %d pairs, want 0", tables.Size())
	}
	var streamed []dataset.Pair
	for p := range tables.candidateSeq() {
		streamed = append(streamed, p)
	}
	if len(streamed) != blocked.Size() || len(streamed) == 0 {
		t.Fatalf("streamed %d pairs, LoadCSV blocked %d", len(streamed), blocked.Size())
	}
	for i, p := range streamed {
		if p != blocked.inner.Pairs[i] {
			t.Fatalf("pair %d: streamed %+v, materialized %+v", i, p, blocked.inner.Pairs[i])
		}
	}

	if _, err := LoadTablesCSV("x", "/nonexistent", rp, attrs); err == nil {
		t.Error("missing left table should fail")
	}
	if _, err := LoadTablesCSV("x", lp, "/nonexistent", attrs); err == nil {
		t.Error("missing right table should fail")
	}
	if _, err := LoadTablesCSV("x", lp, rp, nil); err == nil {
		t.Error("empty schema should fail")
	}
}
