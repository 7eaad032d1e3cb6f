package dtree

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/featstore"
	"repro/internal/rules"
	"repro/internal/stats"
)

// synthetic returns a separable-but-noisy metric matrix: column 0 is a
// similarity (high for matches), column 1 a binary difference signal
// (1 mostly for non-matches), column 2 pure noise.
func synthetic(n int, seed uint64) ([][]float64, []bool, []string) {
	rng := stats.NewRNG(seed)
	X := make([][]float64, n)
	y := make([]bool, n)
	for i := range X {
		match := i%3 == 0
		y[i] = match
		sim := rng.Float64() * 0.45
		diff := 0.0
		if match {
			sim = 0.55 + rng.Float64()*0.45
		} else if rng.Float64() < 0.8 {
			diff = 1
		}
		if rng.Float64() < 0.05 { // label noise
			sim = rng.Float64()
		}
		X[i] = []float64{sim, diff, rng.Float64()}
	}
	return X, y, []string{"title.sim", "year.diff", "noise"}
}

func allRows(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func TestCARTLearnsSignal(t *testing.T) {
	X, y, names := synthetic(600, 1)
	tree := BuildCART(X, y, allRows(len(X)), names, CARTConfig{MaxDepth: 4})
	correct := 0
	for i := range X {
		if (tree.Predict(X[i]) >= 0.5) == y[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(len(X))
	if acc < 0.9 {
		t.Errorf("CART accuracy %.3f < 0.9 on easy data", acc)
	}
}

func TestCARTRespectsDepthAndLeafBounds(t *testing.T) {
	X, y, names := synthetic(300, 2)
	tree := BuildCART(X, y, allRows(len(X)), names, CARTConfig{MaxDepth: 2, MinLeaf: 20})
	var depth func(n *Node) int
	depth = func(n *Node) int {
		if n.Leaf {
			return 0
		}
		l, r := depth(n.Left), depth(n.Right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	if d := depth(tree); d > 2 {
		t.Errorf("tree depth %d exceeds MaxDepth 2", d)
	}
	var checkLeaves func(n *Node)
	checkLeaves = func(n *Node) {
		if n.Leaf {
			if n.Count < 20 && n.Count != 0 {
				t.Errorf("leaf with %d rows violates MinLeaf 20", n.Count)
			}
			return
		}
		checkLeaves(n.Left)
		checkLeaves(n.Right)
	}
	checkLeaves(tree)
}

func TestCARTRulesCoverEverything(t *testing.T) {
	X, y, names := synthetic(300, 3)
	tree := BuildCART(X, y, allRows(len(X)), names, CARTConfig{MaxDepth: 3})
	rs := tree.Rules()
	if len(rs) == 0 {
		t.Fatal("no rules")
	}
	// Two-sided leaf rules partition the space: exactly one rule fires per row.
	for i, x := range X {
		fires := 0
		for j := range rs {
			if rs[j].Fires(x) {
				fires++
			}
		}
		if fires != 1 {
			t.Fatalf("row %d fires %d leaf rules, want 1", i, fires)
		}
	}
}

func TestForestBeatsOrMatchesSingleTreeAndIsDeterministic(t *testing.T) {
	X, y, names := synthetic(500, 4)
	idx := allRows(len(X))
	f1 := BuildForest(X, y, idx, names, 8, CARTConfig{MaxDepth: 3, Seed: 9})
	f2 := BuildForest(X, y, idx, names, 8, CARTConfig{MaxDepth: 3, Seed: 9})
	for i := 0; i < 20; i++ {
		if f1.Predict(X[i]) != f2.Predict(X[i]) {
			t.Fatal("forest not deterministic")
		}
	}
	correct := 0
	for i := range X {
		if (f1.Predict(X[i]) >= 0.5) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(X)); acc < 0.85 {
		t.Errorf("forest accuracy %.3f", acc)
	}
	if len(f1.Rules()) == 0 {
		t.Error("forest produced no rules")
	}
	if (&Forest{}).Predict(X[0]) != 0.5 {
		t.Error("empty forest should predict 0.5")
	}
}

func TestOneSidedFindsDifferenceRule(t *testing.T) {
	X, y, names := synthetic(600, 5)
	rs := GenerateRiskFeatures(X, y, names, OneSidedConfig{MaxDepth: 2})
	if len(rs) == 0 {
		t.Fatal("no risk features generated")
	}
	// There must be an unmatching rule keyed on the year.diff signal.
	foundDiff := false
	for _, r := range rs {
		if r.Match {
			continue
		}
		for _, p := range r.Predicates {
			if p.Name == "year.diff" && p.Op == rules.GT {
				foundDiff = true
			}
		}
	}
	if !foundDiff {
		t.Errorf("expected an unmatching rule on year.diff; got:\n%s", renderRules(rs))
	}
	// And a matching rule on high similarity.
	foundMatch := false
	for _, r := range rs {
		if r.Match {
			foundMatch = true
		}
	}
	if !foundMatch {
		t.Errorf("expected at least one matching rule; got:\n%s", renderRules(rs))
	}
}

func renderRules(rs []rules.Rule) string {
	s := ""
	for _, r := range rs {
		s += r.String() + "\n"
	}
	return s
}

func TestOneSidedRulesQuality(t *testing.T) {
	X, y, names := synthetic(600, 6)
	cfg := OneSidedConfig{MaxDepth: 3, Impurity: 0.15, MinLeaf: 5}
	rs := GenerateRiskFeatures(X, y, names, cfg)
	for _, r := range rs {
		if r.Support < cfg.MinLeaf {
			t.Errorf("rule support %d < MinLeaf: %s", r.Support, r.String())
		}
		// Gini <= 0.15 implies majority fraction >= ~0.917.
		if r.Purity < 0.9 {
			t.Errorf("rule purity %.3f too low: %s", r.Purity, r.String())
		}
		if len(r.Predicates) > cfg.MaxDepth+1 {
			t.Errorf("rule longer than depth bound: %s", r.String())
		}
	}
	// Deduplicated: keys unique.
	seen := map[string]bool{}
	for _, r := range rs {
		if seen[r.String()] {
			t.Errorf("duplicate rule survived dedup: %s", r.String())
		}
		seen[r.String()] = true
	}
}

func TestOneSidedBranchFactorGrowsRuleCount(t *testing.T) {
	X, y, names := synthetic(600, 7)
	narrow := GenerateRiskFeatures(X, y, names, OneSidedConfig{MaxDepth: 3, BranchFactor: 1})
	wide := GenerateRiskFeatures(X, y, names, OneSidedConfig{MaxDepth: 3, BranchFactor: -1})
	if len(wide) < len(narrow) {
		t.Errorf("full enumeration (%d rules) should find at least as many as narrow beam (%d)",
			len(wide), len(narrow))
	}
}

func TestOneSidedEmptyAndDegenerateInputs(t *testing.T) {
	if rs := GenerateRiskFeatures(nil, nil, nil, OneSidedConfig{}); rs != nil {
		t.Error("empty input should yield no rules")
	}
	// All-one-class input: no informative split; must not panic.
	X := [][]float64{{1}, {0.9}, {0.8}, {0.7}, {0.6}, {0.5}, {0.4}, {0.3}, {0.2}, {0.1}, {0.15}, {0.05}}
	y := make([]bool, len(X))
	rs := GenerateRiskFeatures(X, y, []string{"m"}, OneSidedConfig{MaxDepth: 2, MinLeaf: 2})
	for _, r := range rs {
		if r.Match {
			t.Error("single-class data cannot produce matching rules")
		}
	}
}

func TestOneSidedOnGeneratedWorkload(t *testing.T) {
	w := datagen.MustGenerate(datagen.DS(31), 0.015)
	cat := w.Left.Schema.Catalog(w.Left, w.Right)
	idx := allRows(len(w.Pairs))
	X := featstore.New(w, cat).Rows(idx)
	y := make([]bool, len(idx))
	for i, p := range w.Pairs {
		y[i] = p.Match
	}
	rs := GenerateRiskFeatures(X, y, cat.Names(), OneSidedConfig{MaxDepth: 3})
	if len(rs) < 5 {
		t.Fatalf("only %d risk features on DS-like data", len(rs))
	}
	rset, err := rules.Compile(rs, len(cat.Metrics))
	if err != nil {
		t.Fatal(err)
	}
	cov := rset.Coverage(X)
	if cov < 0.5 {
		t.Errorf("rule coverage %.2f < 0.5; high-coverage requirement violated", cov)
	}
	// Rules must be discriminating: average purity high.
	totalPurity := 0.0
	for _, r := range rs {
		totalPurity += r.Purity
	}
	if avg := totalPurity / float64(len(rs)); avg < 0.9 {
		t.Errorf("average purity %.3f < 0.9", avg)
	}
}

func TestSplitHelpers(t *testing.T) {
	g := giniCounts{}
	g = g.add(true, 1)
	g = g.add(false, 1)
	if got := g.gini(); got != 0.5 {
		t.Errorf("gini of 50/50 = %f, want 0.5", got)
	}
	g = g.sub(false, 1)
	if got := g.gini(); got != 0 {
		t.Errorf("gini of pure = %f, want 0", got)
	}
	if (giniCounts{}).gini() != 0 {
		t.Error("empty gini should be 0")
	}
	frac, match := purity(giniCounts{match: 3, unmatch: 1, n: 4})
	if frac != 0.75 || !match {
		t.Errorf("purity = %f,%v", frac, match)
	}
	frac, match = purity(giniCounts{})
	if frac != 1 || match {
		t.Errorf("empty purity = %f,%v", frac, match)
	}
}

func TestBestSplitRespectsMinLeaf(t *testing.T) {
	X := [][]float64{{0}, {0.1}, {0.9}, {1}}
	y := []bool{false, false, true, true}
	buf := make([]splitVal, len(X))
	res := bestSplit(X, y, []int{0, 1, 2, 3}, 0, 1, 3, twoSidedGini, buf)
	if res.ok {
		t.Error("no split should satisfy MinLeaf 3 on 4 rows")
	}
	res = bestSplit(X, y, []int{0, 1, 2, 3}, 0, 1, 2, twoSidedGini, buf)
	if !res.ok {
		t.Fatal("expected a valid split")
	}
	if res.threshold <= 0.1 || res.threshold >= 0.9 {
		t.Errorf("threshold %f should separate the classes", res.threshold)
	}
	if res.score != 0 {
		t.Errorf("perfect split score %f, want 0", res.score)
	}
}
