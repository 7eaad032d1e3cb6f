package baselines

import (
	"context"
	"math"
	"testing"

	"repro/internal/classifier"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/featstore"
	"repro/internal/metrics"
)

var (
	testW     *dataset.Workload
	testCat   *metrics.Catalog
	testSplit dataset.Split
	testStore *featstore.Store
	testM     *classifier.Matcher
	testLab   classifier.Labeled
)

func init() {
	testW = datagen.MustGenerate(datagen.DS(55), 0.02)
	testCat = testW.Left.Schema.Catalog(testW.Left, testW.Right)
	sp, err := testW.SplitPairs("3:2:5", 55)
	if err != nil {
		panic(err)
	}
	testSplit = sp
	testStore = featstore.New(testW, testCat)
	m, err := classifier.TrainRowsCtx(context.Background(), testW, testCat, sp.Train, testStore.Rows(sp.Train),
		classifier.Config{Epochs: 30, Seed: 4}, nil)
	if err != nil {
		panic(err)
	}
	testM = m
	testLab = m.LabelRows(testW, sp.Test, testStore.Rows(sp.Test))
}

// truths returns the ground truth of the workload's pairs at idx.
func truths(idx []int) []bool {
	out := make([]bool, len(idx))
	for k, i := range idx {
		out[k] = testW.Pairs[i].Match
	}
	return out
}

func mislabels(l classifier.Labeled) []bool {
	out := make([]bool, len(l.Idx))
	for k := range l.Idx {
		out[k] = l.Mislabeled(k)
	}
	return out
}

func TestBaselineScores(t *testing.T) {
	scores := Baseline(testLab)
	if len(scores) != len(testLab.Idx) {
		t.Fatal("score count mismatch")
	}
	for k, s := range scores {
		if s < 0 || s > 0.5 {
			t.Fatalf("score %f out of [0,0.5]", s)
		}
		want := 0.5 - math.Abs(testLab.Prob[k]-0.5)
		if math.Abs(s-want) > 1e-12 {
			t.Fatalf("score mismatch at %d", k)
		}
	}
	// Baseline should beat chance: ambiguity correlates with mislabels.
	auroc := eval.AUROC(scores, mislabels(testLab))
	if auroc < 0.55 {
		t.Errorf("Baseline AUROC %.3f barely above chance", auroc)
	}
}

func TestUncertaintyScores(t *testing.T) {
	e, err := classifier.TrainEnsembleRows(testW, testCat, testSplit.Train, testStore.Rows(testSplit.Train), 7,
		classifier.Config{Epochs: 10, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	scores := UncertaintyRows(e, testStore.Rows(testSplit.Test))
	distinct := map[float64]bool{}
	for _, s := range scores {
		if s < 0 || s > 0.25 {
			t.Fatalf("uncertainty score %f out of [0,0.25]", s)
		}
		distinct[s] = true
	}
	// p(1-p) over votes k/7 takes at most ceil((7+1)/2) distinct values.
	if len(distinct) > 8 {
		t.Errorf("%d distinct uncertainty scores; expected coarse quantization", len(distinct))
	}
	auroc := eval.AUROC(scores, mislabels(testLab))
	if auroc < 0.5 {
		t.Errorf("Uncertainty AUROC %.3f below chance", auroc)
	}
}

func TestTrustScorerGeometry(t *testing.T) {
	// Two well-separated clusters: matches near (1,1), non-matches near (0,0).
	var reps [][]float64
	var truth []bool
	for i := 0; i < 20; i++ {
		d := float64(i%5) * 0.01
		reps = append(reps, []float64{1 + d, 1 - d})
		truth = append(truth, true)
		reps = append(reps, []float64{d, -d})
		truth = append(truth, false)
	}
	ts := NewTrustScorer(reps, truth, 3)

	// A point deep in the match cluster, predicted matching: low risk.
	low := ts.Risk([]float64{1, 1}, true)
	// Same point predicted unmatching: high risk.
	high := ts.Risk([]float64{1, 1}, false)
	if low >= high {
		t.Errorf("risk(correct side)=%f should be < risk(wrong side)=%f", low, high)
	}
	if low > 0.2 || high < 0.8 {
		t.Errorf("separated clusters should give extreme risks: %f, %f", low, high)
	}
	// Midpoint: ambiguous.
	mid := ts.Risk([]float64{0.5, 0.5}, true)
	if mid < 0.3 || mid > 0.7 {
		t.Errorf("midpoint risk %f should be ambiguous", mid)
	}
}

func TestTrustScorerDegenerateSets(t *testing.T) {
	// Single-class reference data.
	onlyMatch := NewTrustScorer([][]float64{{1, 1}}, []bool{true}, 3)
	if r := onlyMatch.Risk([]float64{1, 1}, true); r != 0 {
		t.Errorf("no other class: risk should be 0, got %f", r)
	}
	if r := onlyMatch.Risk([]float64{1, 1}, false); r != 1 {
		t.Errorf("predicted class empty: risk should be 1, got %f", r)
	}
	empty := NewTrustScorer(nil, nil, 3)
	if r := empty.Risk([]float64{0}, true); r != 0.5 {
		t.Errorf("empty scorer risk = %f, want 0.5", r)
	}
	// Coincident point: rhoY = rhoN = 0.
	same := NewTrustScorer([][]float64{{1}, {1}}, []bool{true, false}, 1)
	if r := same.Risk([]float64{1}, true); r != 0.5 {
		t.Errorf("coincident classes risk = %f, want 0.5", r)
	}
}

func TestTrustScoresEndToEnd(t *testing.T) {
	scores := TrustScoresRows(testM, testStore.Rows(testSplit.Train), truths(testSplit.Train),
		testLab, testStore.Rows(testSplit.Test), 5)
	if len(scores) != len(testLab.Idx) {
		t.Fatal("score count mismatch")
	}
	auroc := eval.AUROC(scores, mislabels(testLab))
	if auroc < 0.5 {
		t.Errorf("TrustScore AUROC %.3f below chance", auroc)
	}
}

func TestStaticRisk(t *testing.T) {
	valid := testM.LabelRows(testW, testSplit.Valid, testStore.Rows(testSplit.Valid))
	scores := StaticRisk(testLab, valid, StaticRiskConfig{})
	if len(scores) != len(testLab.Idx) {
		t.Fatal("score count mismatch")
	}
	for _, s := range scores {
		if s < 0 || s > 1 || math.IsNaN(s) {
			t.Fatalf("StaticRisk score %f invalid", s)
		}
	}
	auroc := eval.AUROC(scores, mislabels(testLab))
	if auroc < 0.5 {
		t.Errorf("StaticRisk AUROC %.3f below chance", auroc)
	}
}

func TestStaticRiskPosteriorShiftsWithEvidence(t *testing.T) {
	// Construct a validation labeling where outputs around 0.8 are in
	// fact usually non-matches; a test pair labeled matching at 0.8 must
	// then be riskier than under agreeing evidence.
	mkValid := func(matchRate float64) classifier.Labeled {
		n := 50
		l := classifier.Labeled{
			Idx: make([]int, n), Prob: make([]float64, n),
			Label: make([]bool, n), Truth: make([]bool, n),
		}
		for i := 0; i < n; i++ {
			l.Idx[i] = i
			l.Prob[i] = 0.8
			l.Label[i] = true
			l.Truth[i] = float64(i) < matchRate*float64(n)
		}
		return l
	}
	test := classifier.Labeled{
		Idx: []int{0}, Prob: []float64{0.8}, Label: []bool{true}, Truth: []bool{true},
	}
	riskyWorld := StaticRisk(test, mkValid(0.2), StaticRiskConfig{})
	safeWorld := StaticRisk(test, mkValid(0.95), StaticRiskConfig{})
	if riskyWorld[0] <= safeWorld[0] {
		t.Errorf("contradicting evidence should raise risk: %f vs %f", riskyWorld[0], safeWorld[0])
	}
}

func TestHoloClean(t *testing.T) {
	trainX := testStore.Rows(testSplit.Train)
	testX := testStore.Rows(testSplit.Test)
	scores, labelRules, err := HoloClean(testW, testSplit.Train, trainX, testX,
		testCat.Names(), testLab, HoloCleanConfig{Trees: 5, Epochs: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != len(testLab.Idx) {
		t.Fatal("score count mismatch")
	}
	if len(labelRules) == 0 {
		t.Fatal("no labeling rules")
	}
	for _, s := range scores {
		if s < 0 || s > 1 {
			t.Fatalf("HoloClean score %f out of [0,1]", s)
		}
	}
	auroc := eval.AUROC(scores, mislabels(testLab))
	if auroc < 0.5 {
		t.Errorf("HoloClean AUROC %.3f below chance", auroc)
	}
}

func TestHoloCleanErrors(t *testing.T) {
	if _, _, err := HoloClean(testW, nil, nil, nil, nil, classifier.Labeled{}, HoloCleanConfig{}); err == nil {
		t.Error("empty training rows should fail")
	}
	testX := testStore.Rows(testSplit.Test[:2])
	if _, _, err := HoloClean(testW, testSplit.Train, nil, testX, testCat.Names(),
		testLab, HoloCleanConfig{}); err == nil {
		t.Error("misaligned test rows should fail")
	}
}
