package metrics

import (
	"testing"
	"testing/quick"
)

func TestNonSubstringFamily(t *testing.T) {
	if got := NonSubstring("VLDB Journal", "The VLDB Journal"); got != 0 {
		t.Errorf("substring case = %f, want 0", got)
	}
	if got := NonSubstring("SIGMOD", "VLDB"); got != 1 {
		t.Errorf("different names = %f, want 1", got)
	}
	if got := NonSubstring("", "VLDB"); got != 0 {
		t.Errorf("missing value should be uninformative, got %f", got)
	}
	if got := NonPrefix("very large", "very large data bases"); got != 0 {
		t.Errorf("prefix case = %f, want 0", got)
	}
	if got := NonPrefix("large data", "very large data bases"); got != 1 {
		t.Errorf("non-prefix case = %f, want 1", got)
	}
	if got := NonSuffix("data bases", "very large data bases"); got != 0 {
		t.Errorf("suffix case = %f, want 0", got)
	}
	if got := NonSuffix("very", "very large data bases"); got != 1 {
		t.Errorf("non-suffix case = %f, want 1", got)
	}
}

func TestAbbrFamily(t *testing.T) {
	// abbr("very large data bases") = "vldb" matches the compact raw "vldb".
	if got := AbbrNonSubstring("VLDB", "Very Large Data Bases"); got != 0 {
		t.Errorf("abbreviation matches full name, got %f, want 0", got)
	}
	if got := AbbrNonSubstring("SIGMOD Conference", "Very Large Data Bases"); got != 1 {
		t.Errorf("different venues, got %f, want 1", got)
	}
	if got := AbbrNonSubstring("x", ""); got != 0 {
		t.Errorf("missing value should be uninformative, got %f", got)
	}
}

func TestDiffCardinality(t *testing.T) {
	if got := DiffCardinality("a b, c d", "a b, c d, e f"); got != 1 {
		t.Errorf("2 vs 3 entities = %f, want 1", got)
	}
	if got := DiffCardinality("a b, c d", "c d, a b"); got != 0 {
		t.Errorf("same cardinality = %f, want 0", got)
	}
	if got := DiffCardinality("", "a"); got != 0 {
		t.Errorf("empty set uninformative = %f, want 0", got)
	}
}

func TestDistinctEntityExample1(t *testing.T) {
	// Paper Example 1: distinct-entity = 1 ("R Schneider").
	s1 := "T Brinkhoff, H Kriegel, R Schneider, B Seeger"
	s2 := "T Brinkhoff, H Kriegel, B Seeger"
	if got := DistinctEntity(s1, s2); got != 1 {
		t.Errorf("DistinctEntity = %f, want 1", got)
	}
}

func TestDistinctEntityFuzzyNames(t *testing.T) {
	// Initial vs full first name should not count as distinct.
	if got := DistinctEntity("t brinkhoff, b seeger", "thomas brinkhoff, bernhard seeger"); got != 0 {
		t.Errorf("initials should match full names, got %f", got)
	}
	if got := DistinctEntity("alice jones", "bob smith"); got != 2 {
		t.Errorf("fully distinct lists = %f, want 2", got)
	}
}

func TestDistinctEntitySymmetric(t *testing.T) {
	f := func(a, b string) bool { return DistinctEntity(a, b) == DistinctEntity(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestYearDiff(t *testing.T) {
	if got := YearDiff("1998", "1999"); got != 1 {
		t.Errorf("different years = %f, want 1", got)
	}
	if got := YearDiff("1998", "1998"); got != 0 {
		t.Errorf("same year = %f, want 0", got)
	}
	if got := YearDiff("", "1998"); got != 0 {
		t.Errorf("missing year uninformative = %f, want 0", got)
	}
}

func TestNumericGap(t *testing.T) {
	if got := NumericGap("100", "50"); got != 0.5 {
		t.Errorf("gap = %f, want 0.5", got)
	}
	if got := NumericGap("0", "0"); got != 0 {
		t.Errorf("zero gap = %f, want 0", got)
	}
	if got := NumericGap("-100", "100"); got != 1 {
		t.Errorf("clamped gap = %f, want 1", got)
	}
}

func TestDiffKeyToken(t *testing.T) {
	corpus := NewCorpus([]string{
		"spatial join processing", "query processing", "join algorithms",
		"spatial indexing", "transaction processing", "r tree variants",
	}, 0.5)
	// "brinkhoff" is unseen (maximally rare) and appears on one side only.
	if got := DiffKeyToken("brinkhoff spatial join", "spatial join", corpus); got < 1 {
		t.Errorf("rare one-sided token should count, got %f", got)
	}
	if got := DiffKeyToken("spatial join", "spatial join", corpus); got != 0 {
		t.Errorf("identical titles = %f, want 0", got)
	}
	if got := DiffKeyToken("", "spatial", corpus); got != 0 {
		t.Errorf("empty side uninformative = %f, want 0", got)
	}
	// Nil corpus: length-4 heuristic.
	if got := DiffKeyToken("uniquetoken here", "here", nil); got != 1 {
		t.Errorf("nil corpus heuristic = %f, want 1", got)
	}
}

func TestBinaryDifferenceMetricsAreBinary(t *testing.T) {
	fns := map[string]func(a, b string) float64{
		"non_substring":      NonSubstring,
		"non_prefix":         NonPrefix,
		"non_suffix":         NonSuffix,
		"abbr_non_substring": AbbrNonSubstring,
		"diff_cardinality":   DiffCardinality,
		"year_diff":          YearDiff,
	}
	for name, fn := range fns {
		fn := fn
		f := func(a, b string) bool {
			v := fn(a, b)
			return v == 0 || v == 1
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s not binary: %v", name, err)
		}
	}
}

func TestIdenticalValuesShowNoDifference(t *testing.T) {
	f := func(a string) bool {
		return NonSubstring(a, a) == 0 &&
			NonPrefix(a, a) == 0 &&
			NonSuffix(a, a) == 0 &&
			DiffCardinality(a, a) == 0 &&
			DistinctEntity(a, a) == 0 &&
			YearDiff(a, a) == 0 &&
			DiffKeyToken(a, a, nil) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
