package metrics

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// messyValues exercises the normalization, tokenization, entity and numeric
// edge cases the prepared fast path must reproduce exactly.
var messyValues = []string{
	"",
	"   ",
	"VLDB",
	"Very Large Data Bases",
	"J. Smith; Maria García and Wei-Chen Liu",
	"t brinkhoff, thomas brinkhoff",
	"The Quick!! Brown... fox (2019)",
	"1999",
	"$1,299.99",
	"2001.5",
	"éclair au café",
	"a",
	"data data data base",
	"smith j",
}

// stringRef maps each catalog metric, by the name suffix after the
// attribute prefix, to its exported string reference form: the oracle each
// prepared kernel must match bit for bit.
var stringRef = map[string]func(a, b string, c *Corpus) float64{
	"jaro_winkler":       lift(JaroWinkler),
	"edit_sim":           lift(EditSimilarity),
	"jaccard":            lift(JaccardTokens),
	"non_substring":      lift(NonSubstring),
	"non_prefix":         lift(NonPrefix),
	"non_suffix":         lift(NonSuffix),
	"abbr_non_substring": lift(AbbrNonSubstring),
	"jaccard_entities":   lift(JaccardEntities),
	"monge_elkan":        lift(SymMongeElkan),
	"diff_cardinality":   lift(DiffCardinality),
	"distinct_entity":    lift(DistinctEntity),
	"cosine_tfidf":       CosineTFIDF,
	"lcs":                lift(LCS),
	"overlap":            lift(OverlapTokens),
	"diff_key_token":     DiffKeyToken,
	"num_sim":            lift(NumericSimilarity),
	"num_diff":           lift(YearDiff),
	"num_gap":            lift(NumericGap),
	"exact": lift(func(a, b string) float64 {
		if NonSubstring(a, b) == 0 {
			return 1
		}
		return 0
	}),
	"diff": lift(YearDiffOrExact),
}

// lift adapts a corpus-free string metric to the reference signature.
func lift(f func(a, b string) float64) func(string, string, *Corpus) float64 {
	return func(a, b string, _ *Corpus) float64 { return f(a, b) }
}

// refOf returns the string reference form of a catalog metric.
func refOf(t testing.TB, m Metric) func(a, b string, c *Corpus) float64 {
	t.Helper()
	fn, ok := stringRef[m.Name[strings.LastIndexByte(m.Name, '.')+1:]]
	if !ok {
		t.Fatalf("metric %s has no string reference", m.Name)
	}
	return fn
}

// allCatalogMetrics instantiates every metric family once.
func allCatalogMetrics() []Metric {
	var out []Metric
	for i, t := range []AttrType{EntityName, EntitySet, Text, Numeric, Categorical} {
		out = append(out, ForAttribute(fmt.Sprintf("attr%d", i), 0, t)...)
	}
	return out
}

// resetAs resets p to raw with exactly needs, after first resetting it to
// other with every form, so that neither a buffer left over from another
// value nor a form missing from needs can pass unnoticed.
func resetAs(p *Prepared, raw, other string, needs Need) *Prepared {
	p.Reset(other, NeedAll)
	p.Reset(raw, needs)
	return p
}

// TestPreparedMatchesStringPath verifies that every catalog metric's
// kernel, over two values Reset with exactly the metric's declared Needs,
// returns bit-identical results to its string reference form, with and
// without a corpus. It is also the check that each metric's Needs names
// every form its kernel reads.
func TestPreparedMatchesStringPath(t *testing.T) {
	corpus := NewCorpus(messyValues, 0.5)
	var pa, pb Prepared
	var s Scratch
	for _, m := range allCatalogMetrics() {
		ref := refOf(t, m)
		for _, c := range []*Corpus{nil, corpus} {
			for _, a := range messyValues {
				for _, b := range messyValues {
					want := ref(a, b, c)
					got := m.PFn(resetAs(&pa, a, b, m.Needs), resetAs(&pb, b, a, m.Needs), c, &s)
					if want != got {
						t.Fatalf("%s(%q, %q) prepared=%v reference=%v", m.Name, a, b, got, want)
					}
				}
			}
		}
	}
}

// TestPreparedMatchesStringPathQuick property-tests the same equivalence on
// arbitrary strings.
func TestPreparedMatchesStringPathQuick(t *testing.T) {
	corpus := NewCorpus(messyValues, 0.5)
	ms := allCatalogMetrics()
	refs := make([]func(a, b string, c *Corpus) float64, len(ms))
	for i, m := range ms {
		refs[i] = refOf(t, m)
	}
	var pa, pb Prepared
	var s Scratch
	f := func(a, b string) bool {
		for i, m := range ms {
			for _, c := range []*Corpus{nil, corpus} {
				got := m.PFn(resetAs(&pa, a, b, m.Needs), resetAs(&pb, b, a, m.Needs), c, &s)
				if refs[i](a, b, c) != got {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestComputeUsesSharedPreparation guards the per-row sharing contract:
// a row whose attributes are each Reset once, with the needs of all their
// metrics, agrees with metric-by-metric evaluation of the string forms.
func TestComputeUsesSharedPreparation(t *testing.T) {
	cat := &Catalog{Corpora: make([]*Corpus, 2)}
	cat.Metrics = append(cat.Metrics, ForAttribute("name", 0, EntityName)...)
	cat.Metrics = append(cat.Metrics, ForAttribute("year", 1, Numeric)...)
	cat.Corpora[0] = NewCorpus(messyValues, 0.5)

	a := []string{"Very Large Data Bases", "1999"}
	b := []string{"VLDB", "2001"}
	got := computeRow(cat, a, b)
	for i, m := range cat.Metrics {
		var c *Corpus
		if m.Attr < len(cat.Corpora) {
			c = cat.Corpora[m.Attr]
		}
		if want := refOf(t, m)(a[m.Attr], b[m.Attr], c); got[i] != want {
			t.Errorf("row[%d] (%s) = %v, want %v", i, m.Name, got[i], want)
		}
	}

	// Short value slices behave as empty strings.
	short := computeRow(cat, []string{"only name"}, nil)
	if len(short) != len(cat.Metrics) {
		t.Fatalf("width %d, want %d", len(short), len(cat.Metrics))
	}
}
