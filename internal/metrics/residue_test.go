package metrics

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// diffForms names the first form of those needs names whose value
// differs between p and q, or returns "" when they all agree. A nil and an
// empty slice agree.
func diffForms(p, q *Prepared, needs Need) string {
	runesEq := func(a, b [][]rune) bool { return slices.EqualFunc(a, b, slices.Equal[[]rune]) }
	pt, pc := p.TokenCounts()
	qt, qc := q.TokenCounts()
	pn, pok := p.Num()
	qn, qok := q.Num()
	switch {
	case needs&NeedNorm != 0 && p.Norm() != q.Norm():
		return "norm"
	case needs&NeedRunes != 0 && !slices.Equal(p.Runes(), q.Runes()):
		return "runes"
	case needs&NeedTokens != 0 && !slices.Equal(p.Tokens(), q.Tokens()):
		return "tokens"
	case needs&NeedTokenRunes != 0 && !runesEq(p.TokenRunes(), q.TokenRunes()):
		return "token runes"
	case needs&NeedTokenCounts != 0 && (!slices.Equal(pt, qt) || !slices.Equal(pc, qc)):
		return "token counts"
	case needs&NeedEntities != 0 && (!slices.Equal(p.Entities(), q.Entities()) || !runesEq(p.EntityRunes(), q.EntityRunes()) ||
		!slices.EqualFunc(p.EntityFields(), q.EntityFields(), slices.Equal[[]string]) || !slices.Equal(p.EntitySet(), q.EntitySet())):
		return "entities"
	case needs&NeedAbbr != 0 && p.Abbr() != q.Abbr():
		return "abbr"
	case needs&NeedCompact != 0 && p.Compact() != q.Compact():
		return "compact"
	case needs&NeedNum != 0 && (math.Float64bits(pn) != math.Float64bits(qn) || pok != qok):
		return "num"
	}
	return ""
}

// clip shortens a fuzz value for a failure message.
func clip(s string) string {
	if len(s) > 64 {
		return s[:64] + "..."
	}
	return s
}

// residueMasks returns the need masks one fuzz input is checked under:
// every mask for short inputs; for long ones, each single form, every
// form, and each attribute type's catalog and similarity-only needs, so
// that one exec of a long seed stays short.
func residueMasks(inputLen int) []Need {
	var masks []Need
	if inputLen <= 1024 {
		for m := Need(0); m <= NeedAll; m++ {
			masks = append(masks, m)
		}
		return masks
	}
	masks = append(masks, 0, NeedAll)
	for m := Need(1); m < NeedAll; m <<= 1 {
		masks = append(masks, m)
	}
	for _, t := range []AttrType{EntityName, EntitySet, Text, Numeric, Categorical} {
		var all, sim Need
		for _, m := range ForAttribute("a", 0, t) {
			all |= m.Needs
			if m.Kind == Similarity {
				sim |= m.Needs
			}
		}
		masks = append(masks, all, sim)
	}
	return masks
}

// FuzzResidueMatchesReset runs the residue oracle, checkResidue, on any
// two values, invalid UTF-8 included.
func FuzzResidueMatchesReset(f *testing.F) {
	seeds := [][2]string{
		// Abt-Buy: name, description, price.
		{"Sony Bravia KDL-40 LCD TV", "sony bravia 40 inch lcd tv model kdl 40 black"},
		{"$1,299.99", "1299.99"},
		// Amazon-Google: title, manufacturer, description, price.
		{"Adobe Photoshop 7.0", "adobe systems inc"},
		{"photoshop software fast reliable version 7", "£49.95"},
		// DBLP-Scholar: title, authors, venue, year.
		{"Efficient Query Processing in Large Data Bases", "J. Smith; Maria García and Wei-Chen Liu"},
		{"VLDB", "Very Large Data Bases"},
		{"1999", "2001.5"},
		{"", "   "},
		{"data data data base", "base data"},
		{"€0", "-infinity"},
		{"éclair au café", "ÉCLAIR AU CAFÉ!!"},
		{"\xff\xfe abc \xc3", "abc\x80"},
		{"nan", "NaN"},
	}
	// More tokens than 7 bits count, and a distinct token at an offset
	// past 7 bits: lengths, offsets and counts take two varint bytes.
	// TestResidueLongValue covers three bytes, at a size kept out of the
	// corpus.
	seeds = append(seeds, [2]string{strings.Repeat("a ", 200) + "tail", "a tail"})
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	ms := allCatalogMetrics()
	f.Fuzz(func(t *testing.T, a, b string) { checkResidue(t, ms, a, b) })
}

// TestResidueLongValue runs the residue oracle once on a value with more
// tokens than 16 bits count and a distinct token at an offset past 16
// bits, so offsets and counts take three varint bytes. It is not a fuzz
// seed: the fuzzer would mutate and minimize its 140 KB like any other
// corpus entry.
func TestResidueLongValue(t *testing.T) {
	checkResidue(t, allCatalogMetrics(), strings.Repeat("a ", 70000)+"tail", "a tail")
}

// checkResidue is the residue oracle. For every need mask, a residue of a
// kept under the mask — and one kept under every need, as a match store
// keeps it for a rank that reads a subset — rebuilds, into a Prepared whose
// buffers hold b's forms, exactly the forms of a fresh Reset, and the forms
// the mask names equal the independently derived oraclePrepared's. Every
// kernel of ms then scores the rebuilt pair bit-identically to the freshly
// Reset one.
func checkResidue(t *testing.T, ms []Metric, a, b string) {
	t.Helper()
	var rs ResidueScratch
	var row, fresh, other [1]Prepared
	var s Scratch
	oracle := oraclePrepared(a)
	keptAll := KeepResidue([]string{a}, []Need{NeedAll}, &rs)
	for _, mask := range residueMasks(len(a) + len(b)) {
		kept := KeepResidue([]string{a}, []Need{mask}, &rs)
		fresh[0] = Prepared{}
		fresh[0].Reset(a, mask)
		for _, r := range []Residue{kept, keptAll} {
			row[0].Reset(b, NeedAll) // pollute every buffer
			RebuildRow(row[:], []string{a}, r, []Need{mask})
			if form := diffForms(&row[0], &fresh[0], NeedAll); form != "" {
				t.Fatalf("mask %09b: %s of %q rebuilt from its residue differ from a fresh Reset", mask, form, clip(a))
			}
			if form := diffForms(&row[0], oracle, mask); form != "" {
				t.Fatalf("mask %09b: %s of %q rebuilt from its residue differ from the oracle", mask, form, clip(a))
			}
		}
	}
	// The edit-distance kernels cost the product of the values'
	// lengths, so one exec of two long values would stall the fuzzer
	// for minutes; what they read of such a pair is the forms pinned
	// above. A long value against a short one still runs them.
	if len(a)*len(b) > 1<<20 {
		return
	}
	corpus := NewCorpus([]string{a, b, "data base"}, 0.5)
	for _, m := range ms {
		other[0].Reset(a, NeedAll)
		RebuildRow(row[:], []string{a}, KeepResidue([]string{a}, []Need{NeedAll}, &rs), []Need{m.Needs})
		RebuildRow(other[:], []string{b}, KeepResidue([]string{b}, []Need{m.Needs}, &rs), []Need{m.Needs})
		var fa, fb Prepared
		fa.Reset(a, m.Needs)
		fb.Reset(b, m.Needs)
		for _, c := range []*Corpus{nil, corpus} {
			got := m.PFn(&row[0], &other[0], c, &s)
			want := m.PFn(&fa, &fb, c, &Scratch{})
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s(%q, %q) rebuilt=%v fresh Reset=%v", m.Name, clip(a), clip(b), got, want)
			}
		}
	}
}

// TestRebuildRowSteadyStateAllocs pins the zero-allocation contract of
// RebuildRow: once the row's buffers have grown, rebuilding records from
// their kept residues allocates nothing.
func TestRebuildRowSteadyStateAllocs(t *testing.T) {
	needs := []Need{NeedAll, NeedRunes | NeedTokenCounts, NeedNum}
	recs := [][]string{
		{"Very Large Data Bases; A. Smith and B. Jones", "sony bravia 40 inch lcd tv model kdl 40", "$1,299.99"},
		{"wild ünïcødé ∂ata, everywhere", "data data data base", "2020"},
	}
	var rs ResidueScratch
	res := make([]Residue, len(recs))
	for i, r := range recs {
		res[i] = KeepResidue(r, needs, &rs)
	}
	row := make([]Prepared, len(needs))
	for i, r := range recs { // warm the buffers
		RebuildRow(row, r, res[i], needs)
	}
	n := testing.AllocsPerRun(200, func() {
		for i, r := range recs {
			RebuildRow(row, r, res[i], needs)
		}
	})
	if n != 0 {
		t.Fatalf("RebuildRow allocates %v times per cycle, want 0", n)
	}
}

// TestZeroResidueKeepsNothing pins what a store built without needs
// hands out: rebuilding from the zero Residue reads every residue form as
// empty and still scans what needs no residue.
func TestZeroResidueKeepsNothing(t *testing.T) {
	row := make([]Prepared, 1)
	row[0].Reset("other value 42", NeedAll)
	RebuildRow(row, []string{"J. Smith; Wei-Chen Liu"}, Residue{}, []Need{NeedAll})
	p := &row[0]
	if toks, _ := p.TokenCounts(); p.Norm() != "" || len(p.Runes()) != 0 || len(toks) != 0 {
		t.Errorf("zero residue rebuilt norm %q, runes %q, tokens %q; want empty", p.Norm(), p.Runes(), toks)
	}
	if _, ok := p.Num(); ok {
		t.Error("zero residue rebuilt a numeric parse")
	}
	if got := p.Entities(); len(got) != 2 {
		t.Errorf("entities = %q, want the raw value's two", got)
	}
}
