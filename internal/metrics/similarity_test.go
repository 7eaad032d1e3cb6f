package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"kitten", "sitting", 3},
		{"", "abc", 3},
		{"abc", "", 3},
		{"same", "same", 0},
		{"Flaw!", "lawn", 2},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinProperties(t *testing.T) {
	symmetric := func(a, b string) bool { return Levenshtein(a, b) == Levenshtein(b, a) }
	if err := quick.Check(symmetric, nil); err != nil {
		t.Error("symmetry:", err)
	}
	identity := func(a string) bool { return Levenshtein(a, a) == 0 }
	if err := quick.Check(identity, nil); err != nil {
		t.Error("identity:", err)
	}
	triangle := func(a, b, c string) bool {
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}
	if err := quick.Check(triangle, nil); err != nil {
		t.Error("triangle inequality:", err)
	}
}

func TestEditSimilarityRange(t *testing.T) {
	f := func(a, b string) bool {
		s := EditSimilarity(a, b)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if !almostEq(EditSimilarity("", ""), 1) {
		t.Error("empty-vs-empty should be 1")
	}
	if !almostEq(EditSimilarity("abc", "abc"), 1) {
		t.Error("identical should be 1")
	}
}

func TestJaro(t *testing.T) {
	// Classic textbook values.
	if got := Jaro("martha", "marhta"); math.Abs(got-0.944444) > 1e-4 {
		t.Errorf("Jaro(martha,marhta) = %f, want ~0.9444", got)
	}
	if got := Jaro("dixon", "dicksonx"); math.Abs(got-0.766667) > 1e-4 {
		t.Errorf("Jaro(dixon,dicksonx) = %f, want ~0.7667", got)
	}
	if got := Jaro("abc", "xyz"); got != 0 {
		t.Errorf("Jaro(disjoint) = %f, want 0", got)
	}
}

func TestJaroWinkler(t *testing.T) {
	if got := JaroWinkler("martha", "marhta"); math.Abs(got-0.961111) > 1e-4 {
		t.Errorf("JaroWinkler(martha,marhta) = %f, want ~0.9611", got)
	}
	// Winkler boost never decreases Jaro and stays within [0,1].
	f := func(a, b string) bool {
		j, jw := Jaro(a, b), JaroWinkler(a, b)
		return jw >= j-1e-12 && jw <= 1+1e-12 && j >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJaccardTokens(t *testing.T) {
	if got := JaccardTokens("a b c", "b c d"); !almostEq(got, 0.5) {
		t.Errorf("Jaccard = %f, want 0.5", got)
	}
	if got := JaccardTokens("", ""); !almostEq(got, 1) {
		t.Errorf("Jaccard empty = %f, want 1", got)
	}
	if got := JaccardTokens("a", ""); !almostEq(got, 0) {
		t.Errorf("Jaccard one-empty = %f, want 0", got)
	}
}

func TestJaccardEntitiesExample1(t *testing.T) {
	// Paper Example 1: JaccardIndex = 0.75 on the author lists.
	s1 := "T Brinkhoff, H Kriegel, R Schneider, B Seeger"
	s2 := "T Brinkhoff, H Kriegel, B Seeger"
	if got := JaccardEntities(s1, s2); !almostEq(got, 0.75) {
		t.Errorf("JaccardEntities = %f, want 0.75", got)
	}
}

func TestOverlapTokens(t *testing.T) {
	if got := OverlapTokens("a b", "a b c d"); !almostEq(got, 1) {
		t.Errorf("Overlap subset = %f, want 1", got)
	}
	if got := OverlapTokens("a b", "c d"); !almostEq(got, 0) {
		t.Errorf("Overlap disjoint = %f, want 0", got)
	}
}

func TestLCS(t *testing.T) {
	if got := LCS("abcdef", "abcdef"); !almostEq(got, 1) {
		t.Errorf("LCS identical = %f", got)
	}
	// lcs("abcde","ace") = 3, max len 5 -> 0.6
	if got := LCS("abcde", "ace"); !almostEq(got, 0.6) {
		t.Errorf("LCS = %f, want 0.6", got)
	}
	if got := LCS("", "x"); !almostEq(got, 0) {
		t.Errorf("LCS empty = %f, want 0", got)
	}
}

func TestMongeElkan(t *testing.T) {
	// Every token of a has an exact match in b → 1.
	if got := MongeElkan("john smith", "smith john"); !almostEq(got, 1) {
		t.Errorf("MongeElkan reordered = %f, want 1", got)
	}
	f := func(a, b string) bool {
		s := SymMongeElkan(a, b)
		return s >= 0 && s <= 1+1e-12 && almostEq(s, SymMongeElkan(b, a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNumericSimilarity(t *testing.T) {
	if got := NumericSimilarity("100", "100"); !almostEq(got, 1) {
		t.Errorf("equal numbers = %f", got)
	}
	if got := NumericSimilarity("100", "50"); !almostEq(got, 0.5) {
		t.Errorf("100 vs 50 = %f, want 0.5", got)
	}
	if got := NumericSimilarity("$1,200.50", "1200.50"); !almostEq(got, 1) {
		t.Errorf("currency cleaning = %f, want 1", got)
	}
	if got := NumericSimilarity("abc", "1"); !almostEq(got, 0) {
		t.Errorf("unparseable = %f, want 0", got)
	}
	if got := NumericSimilarity("", ""); !almostEq(got, 1) {
		t.Errorf("both absent = %f, want 1", got)
	}
}

func TestCosineTFIDF(t *testing.T) {
	if got := CosineTFIDF("a b c", "a b c", nil); !almostEq(got, 1) {
		t.Errorf("identical cosine = %f", got)
	}
	if got := CosineTFIDF("a b", "c d", nil); !almostEq(got, 0) {
		t.Errorf("disjoint cosine = %f", got)
	}
	// With a corpus, a rare shared token should weigh more than a common one.
	corpus := NewCorpus([]string{
		"the system", "the database", "the network", "the quorum raft",
	}, 0.5)
	rare := CosineTFIDF("quorum alpha", "quorum beta", corpus)
	common := CosineTFIDF("the alpha", "the beta", corpus)
	if rare <= common {
		t.Errorf("rare-token cosine %f should exceed common-token cosine %f", rare, common)
	}
}

func TestSimilaritySymmetryAndRange(t *testing.T) {
	sims := map[string]func(a, b string) float64{
		"edit":    EditSimilarity,
		"jaro":    Jaro,
		"jw":      JaroWinkler,
		"jaccard": JaccardTokens,
		"overlap": OverlapTokens,
		"lcs":     LCS,
	}
	for name, fn := range sims {
		fn := fn
		f := func(a, b string) bool {
			s, s2 := fn(a, b), fn(b, a)
			return s >= -1e-12 && s <= 1+1e-12 && math.Abs(s-s2) < 1e-9
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
