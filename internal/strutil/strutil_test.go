package strutil

import (
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Hello, World!", "hello world"},
		{"  multiple   spaces ", "multiple spaces"},
		{"MiXeD-CaSe_and.punct", "mixed case and punct"},
		{"", ""},
		{"!!!", ""},
		{"42nd Street", "42nd street"},
		{"ünïcödé ÁB", "ünïcödé áb"},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	f := func(s string) bool {
		once := Normalize(s)
		return Normalize(once) == once
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizeOutputCharset(t *testing.T) {
	f := func(s string) bool {
		for _, r := range Normalize(s) {
			if r != ' ' && !unicode.IsLetter(r) && !unicode.IsDigit(r) {
				return false
			}
			// Lowercased output: every rune is a fixed point of ToLower.
			// (Some letters, e.g. U+210D 'ℍ', report IsUpper but have no
			// lowercase mapping; they pass through Normalize unchanged.)
			if unicode.ToLower(r) != r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTokens(t *testing.T) {
	got := Tokens("The Quick, Brown Fox!")
	want := []string{"the", "quick", "brown", "fox"}
	if len(got) != len(want) {
		t.Fatalf("Tokens = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
	if got := Tokens("   "); len(got) != 0 {
		t.Errorf("Tokens(blank) = %v, want empty", got)
	}
}

func TestTokensNeverContainSpaces(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokens(s) {
			if tok == "" || strings.ContainsRune(tok, ' ') {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTokenSetAndCounts(t *testing.T) {
	s := "a b a c b a"
	set := TokenSet(s)
	if len(set) != 3 {
		t.Errorf("TokenSet size = %d, want 3", len(set))
	}
	counts := TokenCounts(s)
	if counts["a"] != 3 || counts["b"] != 2 || counts["c"] != 1 {
		t.Errorf("TokenCounts = %v", counts)
	}
}

func TestAbbreviation(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Very Large Data Bases", "vldb"},
		{"ACM SIGMOD", "as"},
		{"", ""},
		{"single", "s"},
	}
	for _, c := range cases {
		if got := Abbreviation(c.in); got != c.want {
			t.Errorf("Abbreviation(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestAbbreviationLenMatchesTokenCount(t *testing.T) {
	f := func(s string) bool {
		return len([]rune(Abbreviation(s))) == len(Tokens(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitEntities(t *testing.T) {
	got := SplitEntities("T Brinkhoff, H Kriegel; R Schneider and B Seeger")
	want := []string{"t brinkhoff", "h kriegel", "r schneider", "b seeger"}
	if len(got) != len(want) {
		t.Fatalf("SplitEntities = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entity %d = %q, want %q", i, got[i], want[i])
		}
	}
	if got := SplitEntities(",,;"); len(got) != 0 {
		t.Errorf("SplitEntities(empties) = %v, want empty", got)
	}
}

// isSubstring, isPrefix and isSuffix apply the *OfEither predicates to
// the normalized forms of raw values, as the metric kernels do.
func isSubstring(a, b string) bool { return SubstringOfEither(Normalize(a), Normalize(b)) }
func isPrefix(a, b string) bool    { return PrefixOfEither(Normalize(a), Normalize(b)) }
func isSuffix(a, b string) bool    { return SuffixOfEither(Normalize(a), Normalize(b)) }

func TestSubstringPrefixSuffix(t *testing.T) {
	if !isSubstring("data bases", "very large data bases") {
		t.Error("expected substring")
	}
	if isSubstring("databases", "very large data bases") {
		t.Error("unexpected substring")
	}
	if !isPrefix("very large", "Very Large Data Bases") {
		t.Error("expected prefix")
	}
	if isPrefix("large", "very large data bases") {
		t.Error("unexpected prefix")
	}
	if !isSuffix("data bases", "very large data bases") {
		t.Error("expected suffix")
	}
	if isSuffix("very", "very large data bases") {
		t.Error("unexpected suffix")
	}
}

func TestSubstringSymmetricAndReflexive(t *testing.T) {
	f := func(a, b string) bool {
		if isSubstring(a, b) != isSubstring(b, a) {
			return false
		}
		return isSubstring(a, a) && isPrefix(a, a) && isSuffix(a, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrefixSuffixImplySubstring(t *testing.T) {
	f := func(a, b string) bool {
		if isPrefix(a, b) && !isSubstring(a, b) {
			return false
		}
		if isSuffix(a, b) && !isSubstring(a, b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// legacySplitEntities is the historical Replacer-based implementation,
// kept as the oracle for the allocation-free AppendEntitySplit core that
// SplitEntities is now built on.
func legacySplitEntities(s string) []string {
	separators := strings.NewReplacer(";", ",", " and ", ",", " & ", ",")
	replaced := separators.Replace(strings.ToLower(s))
	parts := strings.Split(replaced, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if n := Normalize(p); n != "" {
			out = append(out, n)
		}
	}
	return out
}

// TestSplitEntitiesMatchesLegacy property-tests the new scan against the
// historical implementation on arbitrary strings.
func TestSplitEntitiesMatchesLegacy(t *testing.T) {
	check := func(s string) bool {
		got, want := SplitEntities(s), legacySplitEntities(s)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	for _, s := range []string{
		"", "A. Smith; B. Jones and C. Lee", "x AND y", "a & b & c",
		" & & ", "one,two;three and four", "Ötvös and Şebnem", "and",
		" and ", "a ANd b", "semi;; colons", "trail and ",
	} {
		if !check(s) {
			t.Fatalf("SplitEntities(%q) = %v, legacy = %v", s, SplitEntities(s), legacySplitEntities(s))
		}
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// TestAppendNormalizedMatchesNormalize pins the append core against the
// string form (which is now built on it) using an independent check of the
// documented contract on arbitrary inputs.
func TestAppendNormalizedAppends(t *testing.T) {
	buf := []byte("prefix|")
	buf = AppendNormalized(buf, "Hello,  World!")
	if string(buf) != "prefix|hello world" {
		t.Fatalf("AppendNormalized = %q", buf)
	}
}
