package metrics

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

// TestReusableMatchesFreshPrepare pins the reuse contract: a Prepared that
// has been Reset (after serving another value — buffer reuse must leave no
// residue) produces bit-identical metric values to a fresh, fully derived
// oraclePrepared on every catalog metric.
func TestReusableMatchesFreshPrepare(t *testing.T) {
	corpus := NewCorpus(messyValues, 0.5)
	var ra, rb Prepared
	var s Scratch
	for _, m := range allCatalogMetrics() {
		for _, c := range []*Corpus{nil, corpus} {
			for _, a := range messyValues {
				for _, b := range messyValues {
					want := m.PFn(oraclePrepared(a), oraclePrepared(b), c, &Scratch{})
					got := m.PFn(resetAs(&ra, a, b, NeedAll), resetAs(&rb, b, a, NeedAll), c, &s)
					if want != got {
						t.Fatalf("%s(%q, %q) reusable=%v fresh=%v", m.Name, a, b, got, want)
					}
				}
			}
		}
	}
}

// TestReusableMatchesFreshPrepareQuick property-tests the same equivalence
// on arbitrary (including non-ASCII and non-UTF-8) string pairs.
func TestReusableMatchesFreshPrepareQuick(t *testing.T) {
	ms := allCatalogMetrics()
	var ra, rb Prepared
	var s Scratch
	f := func(a, b string) bool {
		resetAs(&ra, a, b, NeedAll)
		resetAs(&rb, b, a, NeedAll)
		fa, fb := oraclePrepared(a), oraclePrepared(b)
		for _, m := range ms {
			if m.PFn(fa, fb, nil, &Scratch{}) != m.PFn(&ra, &rb, nil, &s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestReusableNeedsSubset checks that a Reset deriving only some forms
// answers each requested accessor as the direct derivation does (the
// feature store resets with Catalog.AttrNeeds masks, not NeedAll), and
// that the forms it leaves out read as empty even after a NeedAll Reset of
// another value.
func TestReusableNeedsSubset(t *testing.T) {
	var p Prepared
	p.Reset("t brinkhoff, thomas brinkhoff 1999", NeedAll)
	const raw = "Very Large Data Bases; V. L. D. B. and friends, 1975"
	p.Reset(raw, NeedTokens|NeedAbbr|NeedNum)
	want := oraclePrepared(raw)
	if got, w := p.Abbr(), want.Abbr(); got != w {
		t.Fatalf("Abbr = %q, want %q", got, w)
	}
	if !slices.Equal(p.Tokens(), want.Tokens()) {
		t.Fatalf("Tokens = %v, want %v", p.Tokens(), want.Tokens())
	}
	if _, ok := p.Num(); ok {
		t.Fatal("value should not parse as a number")
	}
	if len(p.Runes()) != 0 || len(p.TokenRunes()) != 0 || len(p.Entities()) != 0 || len(p.EntitySet()) != 0 || p.Compact() != "" {
		t.Fatalf("forms outside the needs are not empty: runes %q, entities %q, compact %q",
			string(p.Runes()), p.Entities(), p.Compact())
	}
	if toks, _ := p.TokenCounts(); len(toks) != 0 {
		t.Fatalf("TokenCounts outside the needs = %q, want empty", toks)
	}
}

// TestResetSteadyStateAllocs pins the zero-allocation contract of Reset
// itself: once the buffers have grown to the workload's value sizes, Reset
// with the full needs mask allocates nothing.
func TestResetSteadyStateAllocs(t *testing.T) {
	var p Prepared
	vals := []string{
		"Very Large Data Bases, 1975 — authors: A. Smith; B. Jones and C. D. Lee",
		"$1,234.56 proceedings of the 41st conference (volume II)",
		"wild ünïcødé ∂ata with Tokens; and entities, everywhere 2020",
	}
	for _, v := range vals { // warm the buffers
		p.Reset(v, NeedAll)
	}
	n := testing.AllocsPerRun(200, func() {
		for _, v := range vals {
			p.Reset(v, NeedAll)
		}
	})
	if n != 0 {
		t.Fatalf("Reset allocates %v times per cycle, want 0", n)
	}
}

// TestParseNumberReuseMatchesParseNumber pins accept/reject and value
// equality of the allocation-free number parse against the reference.
func TestParseNumberReuseMatchesParseNumber(t *testing.T) {
	cases := []string{
		"", "42", " 42 ", "-1.5", "+.5", "5.", "1e5", "1.5E-3", "£1,234.56",
		"$99", "€0", "abc", "nan", "INF", "-infinity", "1..2", "1e", "1e+",
		"0x1p-2", "1_000", "fate", "and", "1990", "vol. 3", "½",
	}
	var buf []byte
	for _, c := range cases {
		wantV, wantErr := parseNumber(c)
		gotV, gotOK := parseNumberReuse(c, &buf)
		if (wantErr == nil) != gotOK {
			t.Fatalf("parseNumberReuse(%q) ok=%v, reference err=%v", c, gotOK, wantErr)
		}
		if gotOK && wantV != gotV && !(math.IsNaN(wantV) && math.IsNaN(gotV)) {
			t.Fatalf("parseNumberReuse(%q) = %v, reference %v", c, gotV, wantV)
		}
	}
	f := func(s string) bool {
		wantV, wantErr := parseNumber(s)
		gotV, gotOK := parseNumberReuse(s, &buf)
		return (wantErr == nil) == gotOK &&
			(!gotOK || wantV == gotV || (math.IsNaN(wantV) && math.IsNaN(gotV)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
