package metrics

import "fmt"

// AttrType classifies an attribute for metric selection, following the
// value-type hierarchy of paper Figure 5.
type AttrType int

// Attribute value types.
const (
	EntityName  AttrType = iota // a single entity name (product name, venue)
	EntitySet                   // a set of entity names (author list)
	Text                        // free text description (title, description)
	Numeric                     // numeric value (year, price)
	Categorical                 // small closed domain (genre, gender)
)

// String returns the lowercase name of the attribute type.
func (t AttrType) String() string {
	switch t {
	case EntityName:
		return "entity-name"
	case EntitySet:
		return "entity-set"
	case Text:
		return "text"
	case Numeric:
		return "numeric"
	case Categorical:
		return "categorical"
	default:
		return fmt.Sprintf("AttrType(%d)", int(t))
	}
}

// Kind distinguishes similarity metrics (larger = more alike) from
// difference metrics (larger = more different).
type Kind int

// Metric kinds.
const (
	Similarity Kind = iota
	Difference
)

// String returns "sim" or "diff".
func (k Kind) String() string {
	if k == Difference {
		return "diff"
	}
	return "sim"
}

// Metric is a named basic metric bound to one attribute of a schema. PFn
// computes the metric on the two attribute values' Prepared forms — the
// one kernel Catalog.ComputePreparedInto runs for the feature store and
// the serving path; the Corpus (possibly nil) carries corpus statistics
// for TF-IDF and key-token decisions. The *Scratch provides the DP/flag
// buffers of the string cores; metrics that need none ignore it. Needs
// must name every form PFn reads: Reset leaves the others empty. The
// package's tests pin each kernel against an independent string form.
type Metric struct {
	Name  string // e.g. "title.cosine_tfidf" or "year.diff"
	Attr  int    // attribute index in the schema
	Kind  Kind   // similarity or difference
	PFn   func(a, b *Prepared, c *Corpus, s *Scratch) float64
	Needs Need // derived forms PFn reads (NeedAll when unset)
}

// pliftP adapts a corpus-free prepared metric to the catalog signature.
func pliftP(f func(a, b *Prepared, s *Scratch) float64) func(*Prepared, *Prepared, *Corpus, *Scratch) float64 {
	return func(a, b *Prepared, _ *Corpus, s *Scratch) float64 { return f(a, b, s) }
}

// ForAttribute returns the basic metrics appropriate for one attribute of
// the given type, named with the attribute name prefix. The selection
// follows Figure 5: every type gets similarity metrics; entity names get the
// non-substring family, entity sets get diff-cardinality/distinct-entity,
// text gets diff-key-token, numerics get the year/number difference.
func ForAttribute(name string, idx int, t AttrType) []Metric {
	mk := func(suffix string, k Kind, pf func(*Prepared, *Prepared, *Corpus, *Scratch) float64, needs Need) Metric {
		return Metric{Name: name + "." + suffix, Attr: idx, Kind: k, PFn: pf, Needs: needs}
	}
	switch t {
	case EntityName:
		return []Metric{
			mk("jaro_winkler", Similarity, pliftP(jaroWinklerP), NeedRunes),
			mk("edit_sim", Similarity, pliftP(editSimilarityP), NeedRunes),
			mk("jaccard", Similarity, pliftP(jaccardTokensP), NeedTokenCounts),
			mk("non_substring", Difference, pliftP(nonSubstringP), NeedNorm),
			mk("non_prefix", Difference, pliftP(nonPrefixP), NeedNorm),
			mk("non_suffix", Difference, pliftP(nonSuffixP), NeedNorm),
			mk("abbr_non_substring", Difference, pliftP(abbrNonSubstringP), NeedAbbr|NeedCompact),
		}
	case EntitySet:
		return []Metric{
			mk("jaccard_entities", Similarity, pliftP(jaccardEntitiesP), NeedEntities),
			mk("monge_elkan", Similarity, pliftP(symMongeElkanP), NeedTokenRunes),
			mk("diff_cardinality", Difference, pliftP(diffCardinalityP), NeedEntities),
			mk("distinct_entity", Difference, pliftP(distinctEntityP), NeedEntities),
		}
	case Text:
		return []Metric{
			mk("cosine_tfidf", Similarity, cosineTFIDFP, NeedTokenCounts),
			mk("jaccard", Similarity, pliftP(jaccardTokensP), NeedTokenCounts),
			mk("lcs", Similarity, pliftP(lcsP), NeedRunes),
			mk("overlap", Similarity, pliftP(overlapTokensP), NeedTokenCounts),
			mk("diff_key_token", Difference, diffKeyTokenP, NeedTokenCounts),
		}
	case Numeric:
		return []Metric{
			mk("num_sim", Similarity, pliftP(numericSimilarityP), NeedNum),
			mk("num_diff", Difference, pliftP(yearDiffP), NeedNum),
			mk("num_gap", Difference, pliftP(numericGapP), NeedNum),
		}
	case Categorical:
		return []Metric{
			mk("exact", Similarity, pliftP(func(a, b *Prepared, s *Scratch) float64 {
				if nonSubstringP(a, b, s) == 0 {
					return 1
				}
				return 0
			}), NeedNorm),
			mk("diff", Difference, pliftP(yearDiffOrExactP), NeedNum|NeedRunes),
		}
	default:
		return nil
	}
}

// yearDiffOrExactP is 1 when the values differ either numerically or as
// normalized strings (used for categorical attributes).
func yearDiffOrExactP(pa, pb *Prepared, s *Scratch) float64 {
	if d := yearDiffP(pa, pb, s); d == 1 {
		return 1
	}
	if editSimilarityP(pa, pb, s) < 1 {
		return 1
	}
	return 0
}

// Catalog is an ordered collection of basic metrics over a schema, together
// with the per-attribute corpora used by corpus-aware metrics.
type Catalog struct {
	Metrics []Metric
	Corpora []*Corpus // indexed by attribute; nil entries allowed
}

// NumAttrs returns 1 + the largest attribute index any metric references
// (the width a prepared-value row must have).
func (c *Catalog) NumAttrs() int {
	n := len(c.Corpora)
	for _, m := range c.Metrics {
		if m.Attr >= n {
			n = m.Attr + 1
		}
	}
	return n
}

// AttrNeeds aggregates the derived-form needs of the catalog's metrics per
// attribute (indexed 0..NumAttrs-1). Metrics without a declared Needs mask
// conservatively require everything.
func (c *Catalog) AttrNeeds() []Need {
	out := make([]Need, c.NumAttrs())
	for _, m := range c.Metrics {
		n := m.Needs
		if n == 0 {
			n = NeedAll
		}
		out[m.Attr] |= n
	}
	return out
}

// ComputePreparedInto evaluates every metric into dst (len(c.Metrics)) given
// the two records' prepared attribute rows (NumAttrs entries each, Reset
// with at least AttrNeeds). s provides the per-worker metric scratch; nil
// allocates a fresh one for the call.
//
//vetkit:hotpath
func (c *Catalog) ComputePreparedInto(dst []float64, pa, pb []Prepared, s *Scratch) {
	if s == nil {
		s = &Scratch{} //vetkit:allow hotpath nil-scratch convenience path, cold
	}
	for i, m := range c.Metrics {
		var corpus *Corpus
		if m.Attr < len(c.Corpora) {
			corpus = c.Corpora[m.Attr]
		}
		dst[i] = m.PFn(&pa[m.Attr], &pb[m.Attr], corpus, s) //vetkit:allow hotpath metric kernels are alloc-free by contract (reuse tests pin them)
	}
}

// Names returns the metric names in catalog order.
func (c *Catalog) Names() []string {
	names := make([]string, 0, len(c.Metrics))
	for _, m := range c.Metrics {
		names = append(names, m.Name)
	}
	return names
}
