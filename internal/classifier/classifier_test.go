package classifier

import (
	"context"
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/featstore"
	"repro/internal/metrics"
)

// testWorkload caches a small generated workload, its split and its metric
// rows for all tests in the package.
var (
	testW     *dataset.Workload
	testCat   *metrics.Catalog
	testSplit dataset.Split
	testStore *featstore.Store
)

func init() {
	testW = datagen.MustGenerate(datagen.DS(99), 0.02)
	testCat = testW.Left.Schema.Catalog(testW.Left, testW.Right)
	sp, err := testW.SplitPairs("3:2:5", 99)
	if err != nil {
		panic(err)
	}
	testSplit = sp
	testStore = featstore.New(testW, testCat)
}

func trainRows(idx []int, cfg Config) (*Matcher, error) {
	return TrainRowsCtx(context.Background(), testW, testCat, idx, testStore.Rows(idx), cfg, nil)
}

func trainTestMatcher(t *testing.T) *Matcher {
	t.Helper()
	m, err := trainRows(testSplit.Train, Config{Epochs: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func labelRows(m *Matcher, idx []int) Labeled {
	return m.LabelRows(testW, idx, testStore.Rows(idx))
}

// featureVector computes the network input of pair i directly: every
// metric of cat on the pair's values, through a fresh scratch, with
// unbounded counting metrics squashed to [0,1] by x/(1+x). With cat
// restricted to a matcher's view it is the reference for InputFromRow.
func featureVector(w *dataset.Workload, cat *metrics.Catalog, i int) []float64 {
	a, b := w.Values(i)
	raw := featstore.ComputeRowAppend(cat, nil, a, b, featstore.NewServeScratch(cat))
	for j, v := range raw {
		if v > 1 {
			raw[j] = v / (1 + v)
		}
	}
	return raw
}

// TestFeatureVector checks that InputFromRow, the projection of a
// full-catalog row, is bit for bit the similarity metrics computed
// directly and squashed into [0,1].
func TestFeatureVector(t *testing.T) {
	sim := &metrics.Catalog{Corpora: testCat.Corpora}
	for _, m := range testCat.Metrics {
		if m.Kind == metrics.Similarity {
			sim.Metrics = append(sim.Metrics, m)
		}
	}
	idx := testSplit.Test[:50]
	rows := testStore.Rows(idx)
	m, err := newMatcher(testCat)
	if err != nil {
		t.Fatal(err)
	}
	for k, i := range idx {
		want := featureVector(testW, sim, i)
		got := m.InputFromRow(rows[k])
		if len(got) != len(want) {
			t.Fatalf("pair %d: input width %d, want %d", i, len(got), len(want))
		}
		for j, x := range got {
			if x != want[j] {
				t.Fatalf("pair %d: feature %s = %v, direct %v", i, sim.Metrics[j].Name, x, want[j])
			}
			if x < 0 || x > 1 || math.IsNaN(x) {
				t.Errorf("pair %d: feature %s = %f outside [0,1]", i, sim.Metrics[j].Name, x)
			}
		}
	}
}

func TestTrainedMatcherBeatsChance(t *testing.T) {
	m := trainTestMatcher(t)
	l := labelRows(m, testSplit.Test)
	acc := l.Accuracy()
	if acc < 0.72 {
		t.Errorf("test accuracy %.3f < 0.72; the substitute classifier is too weak", acc)
	}
	if l.MislabelCount() == 0 {
		t.Error("classifier is perfect; risk analysis needs mislabels — increase dirtiness")
	}
	if f1 := l.F1(); f1 <= 0 || f1 > 1 {
		t.Errorf("F1 = %f out of range", f1)
	}
}

func TestLabeledInvariants(t *testing.T) {
	m := trainTestMatcher(t)
	l := labelRows(m, testSplit.Valid)
	if len(l.Idx) != len(testSplit.Valid) {
		t.Fatal("Label dropped pairs")
	}
	for k := range l.Idx {
		if l.Label[k] != (l.Prob[k] >= 0.5) {
			t.Fatal("Label inconsistent with Prob")
		}
		if l.Truth[k] != testW.Pairs[l.Idx[k]].Match {
			t.Fatal("Truth inconsistent with workload")
		}
		if l.Mislabeled(k) != (l.Label[k] != l.Truth[k]) {
			t.Fatal("Mislabeled inconsistent")
		}
	}
	if got := l.Accuracy() + float64(l.MislabelCount())/float64(len(l.Idx)); math.Abs(got-1) > 1e-12 {
		t.Error("Accuracy + mislabel rate != 1")
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := trainRows(nil, Config{}); err == nil {
		t.Error("empty training set should fail")
	}
	// Single-class training set.
	var negOnly []int
	for _, i := range testSplit.Train {
		if !testW.Pairs[i].Match {
			negOnly = append(negOnly, i)
		}
		if len(negOnly) == 20 {
			break
		}
	}
	if _, err := trainRows(negOnly, Config{}); err == nil {
		t.Error("single-class training set should fail")
	}
}

func TestMatcherDeterminism(t *testing.T) {
	a, err := trainRows(testSplit.Train[:60], Config{Epochs: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := trainRows(testSplit.Train[:60], Config{Epochs: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range testStore.Rows([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}) {
		if a.ProbRow(row) != b.ProbRow(row) {
			t.Fatal("same seed, different matcher")
		}
	}
}

func TestHiddenRepresentation(t *testing.T) {
	m := trainTestMatcher(t)
	h := m.HiddenRow(testStore.Rows([]int{0})[0])
	if len(h) == 0 {
		t.Fatal("empty hidden representation")
	}
	for _, v := range h {
		if math.IsNaN(v) {
			t.Fatal("NaN in hidden representation")
		}
	}
}

func TestEnsemble(t *testing.T) {
	trainIdx := testSplit.Train[:100]
	e, err := TrainEnsembleRows(testW, testCat, trainIdx, testStore.Rows(trainIdx), 5, Config{Epochs: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if e.Size() == 0 {
		t.Fatal("no members")
	}
	distinct := map[float64]bool{}
	for _, row := range testStore.Rows(testSplit.Test[:50]) {
		p := e.VoteProbRow(row)
		if p < 0 || p > 1 {
			t.Fatalf("VoteProbRow = %f", p)
		}
		// Vote probabilities are quantized to multiples of 1/size.
		q := p * float64(e.Size())
		if math.Abs(q-math.Round(q)) > 1e-9 {
			t.Fatalf("VoteProbRow %f not a multiple of 1/%d", p, e.Size())
		}
		distinct[p] = true
	}
	if len(distinct) > e.Size()+1 {
		t.Errorf("more distinct vote probs (%d) than members+1", len(distinct))
	}
}

func TestCalibration(t *testing.T) {
	c := Calibration{Buckets: 10}
	if c.Bucket(0) != 0 || c.Bucket(0.999) != 9 || c.Bucket(1) != 9 {
		t.Error("bucket boundaries wrong")
	}
	if c.Bucket(-0.1) != 0 {
		t.Error("negative prob should clamp to bucket 0")
	}
	if (Calibration{}).Bucket(0.7) != 0 {
		t.Error("zero-bucket calibration should map everything to 0")
	}

	// Calibration sanity: high buckets should have a higher (Laplace
	// smoothed) match rate than low buckets for a working classifier.
	m := trainTestMatcher(t)
	l := labelRows(m, testSplit.Valid)
	var matches, counts [10]int
	for k, p := range l.Prob {
		b := c.Bucket(p)
		counts[b]++
		if l.Truth[k] {
			matches[b]++
		}
	}
	rate := func(b int) float64 { return float64(matches[b]+1) / float64(counts[b]+2) }
	if rate(9) <= rate(0) {
		t.Errorf("rate[9]=%f should exceed rate[0]=%f", rate(9), rate(0))
	}
}

// TestRestoreMatcher round-trips a trained matcher through Snapshot and
// RestoreMatcher bit for bit, and checks that a snapshot whose network
// reads the difference metrics too is refused.
func TestRestoreMatcher(t *testing.T) {
	m := trainTestMatcher(t)
	snap := m.Snapshot()
	if snap.UseDifferenceMetrics {
		t.Fatal("snapshot claims a difference-metric view")
	}
	back, err := RestoreMatcher(testCat, snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range testStore.Rows(testSplit.Test[:50]) {
		if got, want := back.ProbRow(row), m.ProbRow(row); got != want {
			t.Fatalf("restored matcher gives %v, original %v", got, want)
		}
	}
	snap.UseDifferenceMetrics = true
	if _, err := RestoreMatcher(testCat, snap); err == nil {
		t.Error("RestoreMatcher accepted a snapshot with UseDifferenceMetrics set")
	}
}

func TestEntropy(t *testing.T) {
	if Entropy(0) != 0 || Entropy(1) != 0 {
		t.Error("entropy at certainty should be 0")
	}
	if math.Abs(Entropy(0.5)-math.Ln2) > 1e-12 {
		t.Errorf("Entropy(0.5) = %f, want ln 2", Entropy(0.5))
	}
	if Entropy(0.3) != Entropy(0.7) {
		t.Error("entropy should be symmetric")
	}
}
