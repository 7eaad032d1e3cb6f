package metrics

import (
	"strings"
	"testing"
)

func TestForAttributeSelection(t *testing.T) {
	cases := []struct {
		typ      AttrType
		wantDiff []string
	}{
		{EntityName, []string{"non_substring", "non_prefix", "non_suffix", "abbr_non_substring"}},
		{EntitySet, []string{"diff_cardinality", "distinct_entity"}},
		{Text, []string{"diff_key_token"}},
		{Numeric, []string{"num_diff", "num_gap"}},
	}
	for _, c := range cases {
		ms := ForAttribute("attr", 0, c.typ)
		if len(ms) == 0 {
			t.Fatalf("no metrics for %v", c.typ)
		}
		var diffs []string
		hasSim := false
		for _, m := range ms {
			if m.Kind == Difference {
				diffs = append(diffs, strings.TrimPrefix(m.Name, "attr."))
			} else {
				hasSim = true
			}
			if m.Attr != 0 {
				t.Errorf("%s bound to attr %d, want 0", m.Name, m.Attr)
			}
		}
		if !hasSim {
			t.Errorf("%v: no similarity metric", c.typ)
		}
		for _, want := range c.wantDiff {
			found := false
			for _, d := range diffs {
				if d == want {
					found = true
				}
			}
			if !found {
				t.Errorf("%v: missing difference metric %s (got %v)", c.typ, want, diffs)
			}
		}
	}
}

func TestCatalogCompute(t *testing.T) {
	cat := &Catalog{
		Metrics: append(ForAttribute("title", 0, Text), ForAttribute("year", 1, Numeric)...),
		Corpora: []*Corpus{NewCorpus([]string{"spatial join", "query plans"}, 0.5), nil},
	}
	a := []string{"spatial join processing", "1998"}
	b := []string{"spatial join processing", "1999"}
	vals := computeRow(cat, a, b)
	if len(vals) != len(cat.Metrics) {
		t.Fatalf("got %d values, want %d", len(vals), len(cat.Metrics))
	}
	names := cat.Names()
	byName := map[string]float64{}
	for i, n := range names {
		byName[n] = vals[i]
	}
	if byName["title.jaccard"] != 1 {
		t.Errorf("title.jaccard = %f, want 1", byName["title.jaccard"])
	}
	if byName["year.num_diff"] != 1 {
		t.Errorf("year.num_diff = %f, want 1", byName["year.num_diff"])
	}
}

func TestCatalogComputeShortRecords(t *testing.T) {
	// Records shorter than the schema must not panic; missing values are "".
	cat := &Catalog{Metrics: ForAttribute("x", 3, EntityName)}
	vals := computeRow(cat, []string{"only one"}, nil)
	for i, v := range vals {
		if v != 0 && cat.Metrics[i].Kind == Difference {
			t.Errorf("missing attrs should be uninformative, metric %s = %f", cat.Metrics[i].Name, v)
		}
	}
}

// computeRow evaluates the catalog on one record pair the way the feature
// store does: each attribute value Reset once with its attribute's needs,
// values missing from a short record as "".
func computeRow(c *Catalog, a, b []string) []float64 {
	needs := c.AttrNeeds()
	pa, pb := make([]Prepared, len(needs)), make([]Prepared, len(needs))
	for i, n := range needs {
		pa[i].Reset(valueAt(a, i), n)
		pb[i].Reset(valueAt(b, i), n)
	}
	out := make([]float64, len(c.Metrics))
	c.ComputePreparedInto(out, pa, pb, nil)
	return out
}

func valueAt(vals []string, i int) string {
	if i < len(vals) {
		return vals[i]
	}
	return ""
}

func TestCorpusIDFAndKeyTokens(t *testing.T) {
	values := []string{"the cat", "the dog", "the fish", "quasar"}
	c := NewCorpus(values, 0.5)
	if c.Docs() != 4 {
		t.Fatalf("Docs = %d, want 4", c.Docs())
	}
	if c.IDF("the") >= c.IDF("quasar") {
		t.Error("common token should have lower IDF than rare token")
	}
	if c.IsKeyToken("the") {
		t.Error("'the' should not be a key token")
	}
	if !c.IsKeyToken("quasar") {
		t.Error("'quasar' should be a key token")
	}
	if !c.IsKeyToken("neverseen") {
		t.Error("unknown tokens get max IDF and should be key")
	}
}

func TestEmptyCorpus(t *testing.T) {
	c := NewCorpus(nil, 0.5)
	if c.Docs() != 0 {
		t.Errorf("Docs = %d", c.Docs())
	}
	// Falls back to the length heuristic.
	if c.IsKeyToken("abc") {
		t.Error("short token should not be key in empty corpus")
	}
	if !c.IsKeyToken("abcdef") {
		t.Error("long token should be key in empty corpus")
	}
}

func TestAttrTypeAndKindStrings(t *testing.T) {
	if EntitySet.String() != "entity-set" || Numeric.String() != "numeric" {
		t.Error("AttrType.String mismatch")
	}
	if Similarity.String() != "sim" || Difference.String() != "diff" {
		t.Error("Kind.String mismatch")
	}
	if AttrType(99).String() == "" {
		t.Error("unknown AttrType should still render")
	}
}
