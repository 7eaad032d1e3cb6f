package active

import (
	"context"
	"math"
	"testing"

	"repro/internal/classifier"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/dtree"
	"repro/internal/featstore"
	"repro/internal/metrics"
)

var (
	testW   *dataset.Workload
	testCat *metrics.Catalog
	pool    []int
	test    []int
)

func init() {
	testW = datagen.MustGenerate(datagen.DS(71), 0.02)
	testCat = testW.Left.Schema.Catalog(testW.Left, testW.Right)
	sp, err := testW.SplitPairs("5:0.1:4.9", 71)
	if err != nil {
		panic(err)
	}
	pool = append(sp.Train, sp.Valid...)
	test = sp.Test
}

func smallCfg(seed uint64) Config {
	return Config{
		InitialSize: 48,
		BatchSize:   24,
		Rounds:      2,
		Classifier:  classifier.Config{Epochs: 15},
		RuleGen:     dtree.OneSidedConfig{MaxDepth: 2, BranchFactor: 3},
		Seed:        seed,
	}
}

func TestRunAllMethods(t *testing.T) {
	for _, method := range []Method{LeastConfidence, Entropy, LearnRisk} {
		curve, err := Run(testW, testCat, pool, test, method, smallCfg(3))
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if len(curve) != 3 {
			t.Fatalf("%s: %d points, want 3 (rounds+1)", method, len(curve))
		}
		for i, p := range curve {
			if p.F1 < 0 || p.F1 > 1 {
				t.Errorf("%s: point %d F1 %f out of range", method, i, p.F1)
			}
			wantSize := 48 + i*24
			if p.Size != wantSize {
				t.Errorf("%s: point %d size %d, want %d", method, i, p.Size, wantSize)
			}
		}
		// Learning curves should trend upward: final >= first - small noise.
		if curve[len(curve)-1].F1 < curve[0].F1-0.1 {
			t.Errorf("%s: F1 degraded from %.3f to %.3f", method, curve[0].F1, curve[len(curve)-1].F1)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(testW, testCat, pool[:10], test, Entropy, smallCfg(1)); err == nil {
		t.Error("tiny pool should fail")
	}
	if _, err := Run(testW, testCat, pool, test, Method("Bogus"), smallCfg(1)); err == nil {
		t.Error("unknown method should fail")
	}
	// Single-class pool.
	var negOnly []int
	for _, i := range pool {
		if !testW.Pairs[i].Match {
			negOnly = append(negOnly, i)
		}
	}
	if _, err := Run(testW, testCat, negOnly, test, Entropy, smallCfg(1)); err == nil {
		t.Error("single-class pool should fail")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(testW, testCat, pool, test, LeastConfidence, smallCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testW, testCat, pool, test, LeastConfidence, smallCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("active learning not deterministic")
		}
	}
}

func TestTopK(t *testing.T) {
	idx := []int{10, 20, 30, 40}
	scores := []float64{0.1, 0.9, 0.5, 0.9}
	got := topK(idx, scores, 2)
	if len(got) != 2 {
		t.Fatalf("topK returned %d", len(got))
	}
	// Both 0.9-scored items (20 and 40) should be selected; tie-break is
	// deterministic (first occurrence first).
	if got[0] != 20 || got[1] != 40 {
		t.Errorf("topK = %v, want [20 40]", got)
	}
	if got := topK(idx, scores, 10); len(got) != 4 {
		t.Errorf("oversized k should clamp, got %d", len(got))
	}
}

func TestRemove(t *testing.T) {
	got := remove([]int{1, 2, 3, 4, 5}, []int{2, 4})
	want := []int{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("remove = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("remove = %v, want %v", got, want)
		}
	}
}

func TestSeedSplitStratified(t *testing.T) {
	labeled, unlabeled, err := seedSplit(testW, pool, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(labeled) > 40 {
		t.Errorf("labeled = %d, want <= 40", len(labeled))
	}
	if len(labeled)+len(unlabeled) != len(pool) {
		t.Error("seedSplit lost pairs")
	}
	hasPos, hasNeg := false, false
	for _, i := range labeled {
		if testW.Pairs[i].Match {
			hasPos = true
		} else {
			hasNeg = true
		}
	}
	if !hasPos || !hasNeg {
		t.Error("seed set must contain both classes")
	}
}

// TestLearnRiskScoresWithoutSignalFallBackToEntropy: when the matcher labels
// the labeled set without a single mistake, or gets every pair wrong, no
// risk model can be fitted, and the LearnRisk selector scores the pool by
// the entropy of its classifier probabilities.
func TestLearnRiskScoresWithoutSignalFallBackToEntropy(t *testing.T) {
	st := featstore.New(testW, testCat)
	m, err := classifier.TrainRows(testW, testCat, pool[:100], st.Rows(pool[:100]), classifier.Config{Epochs: 15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	lab := m.LabelRows(testW, pool, st.Rows(pool))
	var right, wrong []int
	for k, i := range pool {
		if lab.Mislabeled(k) {
			wrong = append(wrong, i)
		} else {
			right = append(right, i)
		}
	}
	if len(right) < 40 || len(wrong) == 0 {
		t.Fatalf("fixture: %d correctly and %d wrongly labeled pool pairs", len(right), len(wrong))
	}
	unlabeled := test[:60]
	poolRows := st.Rows(unlabeled)
	for _, tc := range []struct {
		name    string
		labeled []int
	}{{"no mistake", right[:40]}, {"no correct pair", wrong}} {
		scores, err := scorePool(context.Background(), st, m, tc.labeled, unlabeled, LearnRisk, smallCfg(3).withDefaults())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for k, row := range poolRows {
			if want := classifier.Entropy(m.ProbRow(row)); math.Float64bits(scores[k]) != math.Float64bits(want) {
				t.Fatalf("%s: pool pair %d scored %v, want its entropy %v", tc.name, unlabeled[k], scores[k], want)
			}
		}
	}
}
