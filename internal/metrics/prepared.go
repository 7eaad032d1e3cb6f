package metrics

import (
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
	"unsafe"

	"repro/internal/strutil"
)

// Prepared holds every derived form of one attribute value that the basic
// metrics consume: the normalized string, its runes, tokens (as strings and
// as rune slices), distinct tokens with their counts, entity-name split,
// first-letter abbreviation, compact form and numeric parse. Preparing a
// value once and sharing it across all metrics of an attribute — and across
// every candidate pair the value participates in — removes the dominant
// redundancy of metric computation (normalization and tokenization used to
// run once per metric per pair).
//
// Reset re-points the Prepared at a raw value and computes the forms its
// needs name into buffers the Prepared owns and reuses, with zero heap
// allocations in steady state: it derives the value's Residue and rebuilds
// the forms from it, and that rebuild (also reached through RebuildRow from
// a kept Residue) is the one derivation of the forms. The zero Prepared is
// ready to Reset. The accessors are plain reads of the last Reset or
// rebuild; a form its needs left out reads as empty (Num as 0, false).
//
// The string-typed forms (norm, entities, abbr, compact) are views over the
// byte buffers or the residue, built with unsafe.String, so the contract is
// strict:
//
//   - Every form — strings and slices — is valid only until the next
//     Reset or rebuild. Nothing may retain one across them (the metric
//     kernels only write float64s out).
//   - A Prepared is read-only between Resets, so sharing it among
//     goroutines after Reset returns is safe; one goroutine at a time may
//     Reset it.
//
// The package's tests pin every kernel over Reset forms against an
// independent string form of its metric.
type Prepared struct {
	raw string

	norm        string   // view over the residue's normalized form
	runes       []rune   // runes of norm
	tokens      []string // substrings of norm
	tokenRunes  [][]rune // subslices of runes
	tokenCounts sortedBag

	entities     []string   // views over entityBuf
	entityRunes  [][]rune   // subslices of entityRFlat
	entityFields [][]string // subslices of entityFFlat
	entitySet    sortedBag

	abbr    string // view over abbrBuf
	compact string // view over compactBuf: norm with spaces removed

	num   float64
	numOK bool

	// Backing of the views above, grown by Reset and kept across Resets:
	// rs holds the residue Reset derives (the norm view points into it) or
	// a kept residue's decoded token order.
	rs                             ResidueScratch
	entityBuf, abbrBuf, compactBuf []byte
	entityEnds                     []int
	entityRFlat                    []rune
	entityFFlat                    []string
}

// Need is a bitmask of the derived forms a metric consumes; catalogs
// aggregate them per attribute so the feature store derives only what its
// metrics will read.
type Need uint16

// Derived-form bits.
const (
	NeedNorm Need = 1 << iota
	NeedRunes
	NeedTokens
	NeedTokenRunes
	NeedTokenCounts
	NeedEntities
	NeedAbbr
	NeedCompact
	NeedNum

	// NeedAll derives every form.
	NeedAll Need = 1<<iota - 1
)

// Norm returns the strutil-normalized form.
func (p *Prepared) Norm() string { return p.norm }

// Runes returns the normalized form as runes.
func (p *Prepared) Runes() []rune { return p.runes }

// Tokens returns the normalized whitespace tokens.
func (p *Prepared) Tokens() []string { return p.tokens }

// TokenRunes returns each token as a rune slice (tokens are already
// normalized, so these are the rune forms the string metrics would derive).
func (p *Prepared) TokenRunes() [][]rune { return p.tokenRunes }

// TokenCounts returns the token multiset in merge-join form: the distinct
// tokens in ascending byte order and, in parallel, the count of each.
func (p *Prepared) TokenCounts() (tokens []string, counts []int) {
	return p.tokenCounts.vals, p.tokenCounts.counts
}

// Entities returns the entity-name split of the value; EntityRunes and
// EntityFields the per-entity rune and field forms used by fuzzy entity
// matching.
func (p *Prepared) Entities() []string { return p.entities }

// EntityRunes returns each entity name as runes.
func (p *Prepared) EntityRunes() [][]rune { return p.entityRunes }

// EntityFields returns each entity name's whitespace fields.
func (p *Prepared) EntityFields() [][]string { return p.entityFields }

// EntitySet returns the distinct entity names in ascending byte order.
func (p *Prepared) EntitySet() []string { return p.entitySet.vals }

// Abbr returns the first-letter abbreviation of the value.
func (p *Prepared) Abbr() string { return p.abbr }

// Compact returns the normalized form with spaces removed.
func (p *Prepared) Compact() string { return p.compact }

// Num returns the numeric parse of the value and whether it succeeded.
func (p *Prepared) Num() (float64, bool) { return p.num, p.numOK }

// sortedBag is a multiset as two parallel slices: the distinct values in
// ascending byte order and the count of each. The set metrics run as merge
// joins over it, and its order is the float summation order of TF-IDF.
type sortedBag struct {
	vals   []string
	counts []int
}

// fill makes b the multiset of src, reusing b's backing arrays.
func (b *sortedBag) fill(src []string) {
	b.vals = append(b.vals[:0], src...)
	slices.Sort(b.vals)
	b.counts = b.counts[:0]
	n := 0
	for _, v := range b.vals {
		if n > 0 && v == b.vals[n-1] {
			b.counts[n-1]++
			continue
		}
		b.vals[n] = v
		b.counts = append(b.counts, 1)
		n++
	}
	b.vals = b.vals[:n]
}

// fromOrder makes b the token multiset of a normalized form from its
// residue token order, reusing b's backing arrays.
func (b *sortedBag) fromOrder(norm string, order []tokenRun) {
	b.vals, b.counts = b.vals[:0], b.counts[:0]
	for _, r := range order {
		b.vals = append(b.vals, norm[r.off:r.off+r.len])
		b.counts = append(b.counts, r.n)
	}
}

// mergeStep compares the heads of two ascending lists in a merge walk that
// has not finished both: negative when a's head comes first or b is done,
// positive when b's head comes first or a is done, zero when they match.
func mergeStep(a, b []string, i, j int) int {
	switch {
	case i == len(a):
		return 1
	case j == len(b):
		return -1
	}
	return strings.Compare(a[i], b[j])
}

// sharedCount returns how many values two ascending distinct lists share.
func sharedCount(a, b []string) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch c := strings.Compare(a[i], b[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// bview is the unsafe view of a byte-buffer range as a string. The caller
// owns b and promises not to mutate it while the string is reachable — the
// Reset contract above.
func bview(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// Reset re-points p at a new raw value and computes the forms named by
// needs, prerequisites included, into p's buffers. Every other form reads
// as empty until the next Reset.
func (p *Prepared) Reset(raw string, needs Need) {
	norm, order, num, numOK := p.rs.derive(raw, needs)
	p.rebuild(raw, norm, order, num, numOK, needs)
}

// rebuild re-points p at raw and at one value's residue — its normalized
// form, token order and numeric parse — and computes the forms named by
// needs, prerequisites included: the residue's own, and scans of them or
// of raw for the rest.
func (p *Prepared) rebuild(raw, norm string, order []tokenRun, num float64, numOK bool, needs Need) {
	// Truncate every form first; the buffers keep their capacity.
	p.raw, p.norm, p.abbr, p.compact = raw, "", "", ""
	p.runes, p.tokens, p.tokenRunes = p.runes[:0], p.tokens[:0], p.tokenRunes[:0]
	p.entities, p.entityRunes, p.entityFields = p.entities[:0], p.entityRunes[:0], p.entityFields[:0]
	p.tokenCounts.fill(nil)
	p.entitySet.fill(nil)
	p.num, p.numOK = 0, false

	wantRunes := needs&(NeedRunes|NeedTokenRunes) != 0
	wantTokens := needs&(NeedTokens|NeedTokenRunes|NeedAbbr) != 0
	wantTokenRunes := needs&NeedTokenRunes != 0

	if needs&needsNorm != 0 {
		p.norm = norm
	}
	if wantRunes {
		p.runes = appendRunes(p.runes, p.norm)
	}
	if wantTokens {
		p.resetTokens(wantTokenRunes)
	}
	if needs&NeedTokenCounts != 0 {
		p.tokenCounts.fromOrder(p.norm, order)
	}
	if needs&NeedEntities != 0 {
		p.resetEntities()
	}
	if needs&NeedAbbr != 0 {
		p.abbrBuf = p.abbrBuf[:0]
		for _, t := range p.tokens {
			r, _ := utf8.DecodeRuneInString(t)
			p.abbrBuf = utf8.AppendRune(p.abbrBuf, r)
		}
		p.abbr = bview(p.abbrBuf)
	}
	if needs&NeedCompact != 0 {
		p.compactBuf = p.compactBuf[:0]
		for i := 0; i < len(p.norm); i++ {
			if p.norm[i] != ' ' {
				p.compactBuf = append(p.compactBuf, p.norm[i])
			}
		}
		p.compact = bview(p.compactBuf)
	}
	if needs&NeedNum != 0 {
		p.num, p.numOK = num, numOK
	}
}

// resetTokens splits the normalized form into tokens, substrings of
// p.norm. Token runes (when requested) are subslices of p.runes, which
// tokenization walks in lockstep with the byte positions.
func (p *Prepared) resetTokens(withRunes bool) {
	bs, rs := -1, 0 // start of the current token (byte index, rune index)
	ri := 0
	for bi, r := range p.norm {
		if r == ' ' {
			if bs >= 0 {
				p.tokens = append(p.tokens, p.norm[bs:bi])
				if withRunes {
					p.tokenRunes = append(p.tokenRunes, p.runes[rs:ri])
				}
				bs = -1
			}
		} else if bs < 0 {
			bs, rs = bi, ri
		}
		ri++
	}
	if bs >= 0 {
		p.tokens = append(p.tokens, p.norm[bs:])
		if withRunes {
			p.tokenRunes = append(p.tokenRunes, p.runes[rs:ri])
		}
	}
}

// resetEntities computes the entity split and its per-entity rune and
// field views.
func (p *Prepared) resetEntities() {
	p.entityBuf, p.entityEnds = strutil.AppendEntitySplit(p.entityBuf[:0], p.entityEnds[:0], p.raw)
	p.entityRFlat = p.entityRFlat[:0]
	p.entityFFlat = p.entityFFlat[:0]
	start := 0
	for _, end := range p.entityEnds {
		e := bview(p.entityBuf[start:end])
		start = end
		p.entities = append(p.entities, e)

		rlo := len(p.entityRFlat)
		p.entityRFlat = appendRunes(p.entityRFlat, e)
		p.entityRunes = append(p.entityRunes, p.entityRFlat[rlo:len(p.entityRFlat):len(p.entityRFlat)])

		flo := len(p.entityFFlat)
		p.entityFFlat = appendSpaceFields(p.entityFFlat, e)
		p.entityFields = append(p.entityFields, p.entityFFlat[flo:len(p.entityFFlat):len(p.entityFFlat)])
	}
	p.entitySet.fill(p.entities)
}

// appendRunes appends the runes of s to dst.
func appendRunes(dst []rune, s string) []rune {
	for _, r := range s {
		dst = append(dst, r)
	}
	return dst
}

// appendSpaceFields appends the space-separated fields of an
// already-normalized string (single ASCII spaces, no leading/trailing) to
// dst; the fields are substrings of s. Matches strings.Fields on such
// input.
func appendSpaceFields(dst []string, s string) []string {
	start := -1
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' {
			if start >= 0 {
				dst = append(dst, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

// parseNumberReuse parses a numeric attribute value without failure
// allocations: the currency/thousands cleanup writes into the reusable
// buf, and a full syntax check runs before strconv.ParseFloat so the common
// non-numeric value (a text attribute fed to a numeric metric) never
// constructs a *strconv.NumError. The tests pin accept/reject and values
// against the direct strings.Replacer + ParseFloat parse.
func parseNumberReuse(s string, buf *[]byte) (float64, bool) {
	var cleaned string
	if strings.ContainsAny(s, "$,£€") {
		b := (*buf)[:0]
		for _, r := range s {
			switch r {
			case '$', ',', '£', '€':
			default:
				b = utf8.AppendRune(b, r)
			}
		}
		*buf = b
		cleaned = strings.TrimSpace(bview(b))
	} else {
		cleaned = strings.TrimSpace(s)
	}
	if !floatSyntaxPlausible(cleaned) {
		return 0, false
	}
	v, err := strconv.ParseFloat(cleaned, 64)
	return v, err == nil
}

// floatSyntaxPlausible reports whether s could be accepted by
// strconv.ParseFloat. It is exact for the plain decimal grammar and for
// inf/infinity/nan; strings with digit-separating underscores or a hex
// prefix are passed through as plausible (ParseFloat decides — those are
// vanishingly rare in attribute data, and a failed parse merely allocates
// the error it always used to). It never returns false for a string
// ParseFloat accepts.
func floatSyntaxPlausible(s string) bool {
	if len(s) == 0 {
		return false
	}
	rest := s
	if rest[0] == '+' || rest[0] == '-' {
		rest = rest[1:]
	}
	if strings.EqualFold(rest, "inf") || strings.EqualFold(rest, "infinity") || strings.EqualFold(rest, "nan") {
		return true
	}
	if strings.ContainsRune(rest, '_') {
		return true // underscore placement rules: let ParseFloat decide
	}
	if len(rest) > 1 && rest[0] == '0' && (rest[1] == 'x' || rest[1] == 'X') {
		return true // hex float: let ParseFloat decide
	}
	// Plain decimal: digits [ '.' digits ] [ (e|E) [sign] digits ], at
	// least one digit in the mantissa.
	i, sawDigit := 0, false
	for i < len(rest) && rest[i] >= '0' && rest[i] <= '9' {
		i++
		sawDigit = true
	}
	if i < len(rest) && rest[i] == '.' {
		i++
		for i < len(rest) && rest[i] >= '0' && rest[i] <= '9' {
			i++
			sawDigit = true
		}
	}
	if !sawDigit {
		return false
	}
	if i == len(rest) {
		return true
	}
	if rest[i] != 'e' && rest[i] != 'E' {
		return false
	}
	i++
	if i < len(rest) && (rest[i] == '+' || rest[i] == '-') {
		i++
	}
	if i == len(rest) {
		return false
	}
	for ; i < len(rest); i++ {
		if rest[i] < '0' || rest[i] > '9' {
			return false
		}
	}
	return true
}
