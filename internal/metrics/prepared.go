package metrics

import (
	"slices"
	"strings"

	"repro/internal/strutil"
)

// Prepared caches every derived form of one attribute value that the basic
// metrics consume: the normalized string, its runes, tokens (as strings and
// as rune slices), distinct tokens with their counts, entity-name split,
// first-letter abbreviation, and numeric parse. Preparing a value once and
// sharing it across all metrics of an attribute — and across every
// candidate pair the value participates in — removes the dominant
// redundancy of metric computation (normalization and tokenization used to
// run once per metric per pair).
//
// The derived forms are computed lazily by the accessors, which makes a
// Prepared cheap when only a few forms are needed (the string forms the
// package's tests check the kernels against use this). Lazy computation is
// NOT safe for concurrent use; call Materialize before sharing a Prepared
// between goroutines, after which all accessors are read-only.
type Prepared struct {
	raw string

	norm    string
	hasNorm bool

	runes    []rune
	hasRunes bool

	tokens    []string
	hasTokens bool

	tokenRunes    [][]rune
	hasTokenRunes bool

	tokenCounts    sortedBag
	hasTokenCounts bool

	entities     []string
	entityRunes  [][]rune
	entityFields [][]string
	entitySet    sortedBag
	hasEntities  bool

	abbr    string
	hasAbbr bool

	compact    string // normalized form with spaces removed
	hasCompact bool

	num    float64
	numOK  bool
	hasNum bool

	// scratch, when non-nil, marks a reusable Prepared built by
	// NewReusable: Reset recomputes the derived forms into the scratch's
	// growable buffers (see reuse.go for the aliasing contract).
	scratch *reuseState
}

// Need is a bitmask of the derived forms a metric consumes; catalogs
// aggregate them per attribute so the feature store materializes only what
// its metrics will read.
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

	// NeedAll materializes every form.
	NeedAll Need = 1<<iota - 1
)

// Prepare wraps a raw attribute value. Derived forms are computed on first
// use.
func Prepare(s string) *Prepared { return &Prepared{raw: s} }

// Raw returns the original value.
func (p *Prepared) Raw() string { return p.raw }

// Norm returns the strutil-normalized form.
func (p *Prepared) Norm() string {
	if !p.hasNorm {
		p.norm = strutil.Normalize(p.raw)
		p.hasNorm = true
	}
	return p.norm
}

// Runes returns the normalized form as runes.
func (p *Prepared) Runes() []rune {
	if !p.hasRunes {
		p.runes = []rune(p.Norm())
		p.hasRunes = true
	}
	return p.runes
}

// Tokens returns the normalized whitespace tokens.
func (p *Prepared) Tokens() []string {
	if !p.hasTokens {
		n := p.Norm()
		if n == "" {
			p.tokens = []string{}
		} else {
			p.tokens = strings.Fields(n)
		}
		p.hasTokens = true
	}
	return p.tokens
}

// TokenRunes returns each token as a rune slice (tokens are already
// normalized, so these are the rune forms the string metrics would derive).
func (p *Prepared) TokenRunes() [][]rune {
	if !p.hasTokenRunes {
		ts := p.Tokens()
		p.tokenRunes = make([][]rune, len(ts))
		for i, t := range ts {
			p.tokenRunes[i] = []rune(t)
		}
		p.hasTokenRunes = true
	}
	return p.tokenRunes
}

// TokenCounts returns the token multiset in merge-join form: the distinct
// tokens in ascending byte order and, in parallel, the count of each.
func (p *Prepared) TokenCounts() (tokens []string, counts []int) {
	if !p.hasTokenCounts {
		p.tokenCounts.fill(p.Tokens())
		p.hasTokenCounts = true
	}
	return p.tokenCounts.vals, p.tokenCounts.counts
}

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

// Entities returns the entity-name split of the value; EntityRunes and
// EntityFields the per-entity rune and field forms used by fuzzy entity
// matching.
func (p *Prepared) Entities() []string {
	p.ensureEntities()
	return p.entities
}

// EntityRunes returns each entity name as runes.
func (p *Prepared) EntityRunes() [][]rune {
	p.ensureEntities()
	return p.entityRunes
}

// EntityFields returns each entity name's whitespace fields.
func (p *Prepared) EntityFields() [][]string {
	p.ensureEntities()
	return p.entityFields
}

// EntitySet returns the distinct entity names in ascending byte order.
func (p *Prepared) EntitySet() []string {
	p.ensureEntities()
	return p.entitySet.vals
}

func (p *Prepared) ensureEntities() {
	if p.hasEntities {
		return
	}
	es := strutil.SplitEntities(p.raw)
	p.entities = es
	p.entityRunes = make([][]rune, len(es))
	p.entityFields = make([][]string, len(es))
	for i, e := range es {
		p.entityRunes[i] = []rune(e)
		p.entityFields[i] = strings.Fields(e)
	}
	p.entitySet.fill(es)
	p.hasEntities = true
}

// Abbr returns the first-letter abbreviation of the value.
func (p *Prepared) Abbr() string {
	if !p.hasAbbr {
		p.abbr = strutil.Abbreviation(p.raw)
		p.hasAbbr = true
	}
	return p.abbr
}

// Compact returns the normalized form with spaces removed.
func (p *Prepared) Compact() string {
	if !p.hasCompact {
		p.compact = strings.ReplaceAll(p.Norm(), " ", "")
		p.hasCompact = true
	}
	return p.compact
}

// Num returns the numeric parse of the value and whether it succeeded.
func (p *Prepared) Num() (float64, bool) {
	if !p.hasNum {
		v, err := parseNumber(p.raw)
		p.num, p.numOK = v, err == nil
		p.hasNum = true
	}
	return p.num, p.numOK
}

// Materialize forces every derived form so the Prepared can subsequently be
// read concurrently.
func (p *Prepared) Materialize() *Prepared { return p.MaterializeNeeds(NeedAll) }

// MaterializeNeeds forces the requested derived forms (plus their
// prerequisites) so concurrent readers of exactly those forms are safe.
func (p *Prepared) MaterializeNeeds(needs Need) *Prepared {
	if needs&(NeedNorm|NeedRunes|NeedTokens|NeedTokenRunes|NeedTokenCounts|NeedCompact) != 0 {
		p.Norm()
	}
	if needs&NeedRunes != 0 {
		p.Runes()
	}
	if needs&(NeedTokens|NeedTokenRunes|NeedTokenCounts) != 0 {
		p.Tokens()
	}
	if needs&NeedTokenRunes != 0 {
		p.TokenRunes()
	}
	if needs&NeedTokenCounts != 0 {
		p.TokenCounts()
	}
	if needs&NeedEntities != 0 {
		p.ensureEntities()
	}
	if needs&NeedAbbr != 0 {
		p.Abbr()
	}
	if needs&NeedCompact != 0 {
		p.Compact()
	}
	if needs&NeedNum != 0 {
		p.Num()
	}
	return p
}
