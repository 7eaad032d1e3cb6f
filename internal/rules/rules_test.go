package rules

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
	"repro/internal/featstore"
)

func sampleRules() []Rule {
	return []Rule{
		{
			Predicates: []Predicate{{Metric: 0, Name: "year.num_diff", Op: GT, Threshold: 0.5}},
			Match:      false, Support: 100, Purity: 0.98,
		},
		{
			Predicates: []Predicate{
				{Metric: 1, Name: "title.jaccard", Op: GT, Threshold: 0.9},
				{Metric: 0, Name: "year.num_diff", Op: LE, Threshold: 0.5},
			},
			Match: true, Support: 40, Purity: 0.95,
		},
	}
}

func TestPredicateHolds(t *testing.T) {
	p := Predicate{Metric: 1, Op: GT, Threshold: 0.5}
	if !p.Holds([]float64{0, 0.6}) {
		t.Error("0.6 > 0.5 should hold")
	}
	if p.Holds([]float64{0, 0.5}) {
		t.Error("0.5 > 0.5 should not hold")
	}
	le := Predicate{Metric: 0, Op: LE, Threshold: 0.5}
	if !le.Holds([]float64{0.5}) {
		t.Error("0.5 <= 0.5 should hold")
	}
	// Out-of-range metric index never holds (defensive).
	if p.Holds([]float64{0.9}) {
		t.Error("missing column should not hold")
	}
}

func TestRuleFires(t *testing.T) {
	r := sampleRules()[1]
	if !r.Fires([]float64{0.3, 0.95}) {
		t.Error("both predicates hold; rule should fire")
	}
	if r.Fires([]float64{0.7, 0.95}) {
		t.Error("year predicate fails; rule should not fire")
	}
	empty := Rule{Match: true}
	if !empty.Fires([]float64{1, 2}) {
		t.Error("empty conjunction fires vacuously")
	}
}

func TestRuleString(t *testing.T) {
	s := sampleRules()[0].String()
	for _, want := range []string{"year.num_diff", ">", "unmatching", "support=100"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	if !strings.Contains(sampleRules()[1].String(), "AND") {
		t.Error("conjunction should render with AND")
	}
	if Op(LE).String() != "<=" || Op(GT).String() != ">" {
		t.Error("Op.String mismatch")
	}
}

func TestDedup(t *testing.T) {
	rs := sampleRules()
	dup := rs[0]
	dup.Support = 50 // same predicates, lower support
	all := append([]Rule{dup}, rs...)
	// Also a rule with identical predicates in different order.
	reordered := Rule{
		Predicates: []Predicate{rs[1].Predicates[1], rs[1].Predicates[0]},
		Match:      true, Support: 10, Purity: 0.9,
	}
	all = append(all, reordered)
	out := Dedup(all)
	if len(out) != 2 {
		t.Fatalf("Dedup kept %d rules, want 2", len(out))
	}
	// Keeps the larger support.
	if out[0].Support != 100 {
		t.Errorf("Dedup should keep max support first, got %d", out[0].Support)
	}
	// Same predicates, different class: both kept.
	flipped := rs[0]
	flipped.Match = true
	if got := Dedup([]Rule{rs[0], flipped}); len(got) != 2 {
		t.Errorf("class should distinguish rules, got %d", len(got))
	}
}

func TestDedupDeterministic(t *testing.T) {
	f := func(seed uint8) bool {
		rs := sampleRules()
		a := Dedup(rs)
		b := Dedup([]Rule{rs[1], rs[0]})
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].String() != b[i].String() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestApplyAndStats(t *testing.T) {
	rs, err := Compile(sampleRules(), 2)
	if err != nil {
		t.Fatal(err)
	}
	X := [][]float64{
		{0.7, 0.2}, // fires rule 0 only
		{0.3, 0.95},
		{0.2, 0.1}, // fires nothing
	}
	fired := rs.Apply(X)
	if len(fired[0]) != 1 || fired[0][0] != 0 {
		t.Errorf("row 0 fired %v, want [0]", fired[0])
	}
	if len(fired[1]) != 1 || fired[1][0] != 1 {
		t.Errorf("row 1 fired %v, want [1]", fired[1])
	}
	if len(fired[2]) != 0 {
		t.Errorf("row 2 fired %v, want none", fired[2])
	}

	y := []bool{false, true, false}
	st := rs.Stats(X, y)
	if st[0].Support != 1 || st[0].Matches != 0 {
		t.Errorf("rule 0 stats %+v", st[0])
	}
	if st[1].Support != 1 || st[1].Matches != 1 {
		t.Errorf("rule 1 stats %+v", st[1])
	}
	// Laplace smoothing keeps rates strictly inside (0,1).
	if st[0].MatchRate <= 0 || st[0].MatchRate >= 1 {
		t.Errorf("unsmoothed rate %f", st[0].MatchRate)
	}
	if got := st[1].MatchRate; got != 2.0/3.0 {
		t.Errorf("rule 1 rate %f, want 2/3", got)
	}

	cov := rs.Coverage(X)
	if cov != 2.0/3.0 {
		t.Errorf("coverage %f, want 2/3", cov)
	}
	if rs.Coverage(nil) != 0 {
		t.Error("empty coverage should be 0")
	}
}

// TestMatrixOnWorkload checks the raw basic-metric matrix rules threshold,
// as the feature store serves it: one row per pair, one column per catalog
// metric.
func TestMatrixOnWorkload(t *testing.T) {
	w := datagen.MustGenerate(datagen.AB(17), 0.02)
	cat := w.Left.Schema.Catalog(w.Left, w.Right)
	idx := []int{0, 1, 2, 3}
	X := featstore.New(w, cat).Rows(idx)
	if len(X) != 4 {
		t.Fatalf("rows = %d", len(X))
	}
	for _, row := range X {
		if len(row) != len(cat.Metrics) {
			t.Fatalf("row width %d, want %d", len(row), len(cat.Metrics))
		}
	}
}
