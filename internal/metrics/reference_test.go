package metrics

import (
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/strutil"
)

// The string forms of the catalog metrics: the oracle table stringRef
// (prepared_test.go) pins every prepared kernel against. Most prepare
// their inputs with oraclePrepared and call the kernel, so they pin
// Reset's forms against a direct derivation of each. The set metrics —
// token and entity Jaccard, overlap, diff-key-token and TF-IDF cosine —
// compute over Go maps instead, independently of the merge joins they
// check.

// oraclePrepared derives every form of raw directly from the strutil
// string functions, independently of Reset and its buffers.
func oraclePrepared(raw string) *Prepared {
	p := &Prepared{raw: raw, norm: strutil.Normalize(raw)}
	p.runes = []rune(p.norm)
	p.tokens = strings.Fields(p.norm)
	p.tokenRunes = make([][]rune, len(p.tokens))
	for i, t := range p.tokens {
		p.tokenRunes[i] = []rune(t)
	}
	p.tokenCounts.fill(p.tokens)
	es := strutil.SplitEntities(raw)
	p.entities = es
	p.entityRunes = make([][]rune, len(es))
	p.entityFields = make([][]string, len(es))
	for i, e := range es {
		p.entityRunes[i] = []rune(e)
		p.entityFields[i] = strings.Fields(e)
	}
	p.entitySet.fill(es)
	p.abbr = strutil.Abbreviation(raw)
	p.compact = strings.ReplaceAll(p.norm, " ", "")
	v, err := parseNumber(raw)
	p.num, p.numOK = v, err == nil
	return p
}

// numberCleaner strips currency symbols and thousands separators.
var numberCleaner = strings.NewReplacer("$", "", ",", "", "£", "", "€", "")

// parseNumber is the direct numeric parse parseNumberReuse must match.
func parseNumber(s string) (float64, error) {
	cleaned := strings.TrimSpace(numberCleaner.Replace(s))
	return strconv.ParseFloat(cleaned, 64)
}

// Levenshtein returns the edit distance between the normalized forms of a
// and b, in rune operations (insert, delete, substitute).
func Levenshtein(a, b string) int {
	var s Scratch
	return levenshteinLen([]rune(strutil.Normalize(a)), []rune(strutil.Normalize(b)), &s)
}

// EditSimilarity returns 1 - Levenshtein(a,b)/max(len(a),len(b)), a
// similarity in [0,1]. Two empty values are maximally similar.
func EditSimilarity(a, b string) float64 {
	var s Scratch
	return editSimilarityP(oraclePrepared(a), oraclePrepared(b), &s)
}

// Jaro returns the Jaro similarity of the normalized values, in [0,1].
func Jaro(a, b string) float64 {
	var s Scratch
	return jaroRunes([]rune(strutil.Normalize(a)), []rune(strutil.Normalize(b)), &s)
}

// JaroWinkler returns the Jaro-Winkler similarity with the standard prefix
// scale of 0.1 and a maximum rewarded prefix of 4 runes.
func JaroWinkler(a, b string) float64 {
	var s Scratch
	return jaroWinklerRunes([]rune(strutil.Normalize(a)), []rune(strutil.Normalize(b)), &s)
}

// JaccardTokens returns the Jaccard index of the token sets of a and b.
// Two empty token sets are maximally similar.
func JaccardTokens(a, b string) float64 {
	return jaccardSets(strutil.TokenSet(a), strutil.TokenSet(b))
}

// JaccardEntities returns the Jaccard index of the entity-name sets of two
// entity-set values such as author lists (the paper's entity-based
// JaccardIndex in Example 1).
func JaccardEntities(a, b string) float64 {
	return jaccardSets(entitySet(a), entitySet(b))
}

func entitySet(s string) map[string]struct{} {
	set := make(map[string]struct{})
	for _, e := range strutil.SplitEntities(s) {
		set[e] = struct{}{}
	}
	return set
}

func jaccardSets(sa, sb map[string]struct{}) float64 {
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	inter := 0
	for t := range sa {
		if _, ok := sb[t]; ok {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// OverlapTokens returns |A∩B| / min(|A|,|B|) over token sets (the overlap
// coefficient). Empty-vs-empty is 1; empty-vs-nonempty is 0.
func OverlapTokens(a, b string) float64 {
	sa, sb := strutil.TokenSet(a), strutil.TokenSet(b)
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	inter := 0
	for t := range sa {
		if _, ok := sb[t]; ok {
			inter++
		}
	}
	m := len(sa)
	if len(sb) < m {
		m = len(sb)
	}
	return float64(inter) / float64(m)
}

// LCS returns the length of the longest common subsequence of the normalized
// values, normalized by the length of the longer value, yielding [0,1].
func LCS(a, b string) float64 {
	var s Scratch
	return lcsRunes([]rune(strutil.Normalize(a)), []rune(strutil.Normalize(b)), &s)
}

// MongeElkan returns the Monge-Elkan similarity: the average over tokens of a
// of the best Jaro-Winkler match against tokens of b. Asymmetric by
// definition; SymMongeElkan averages both directions.
func MongeElkan(a, b string) float64 {
	var s Scratch
	return mongeElkanP(oraclePrepared(a), oraclePrepared(b), &s)
}

// SymMongeElkan is the symmetric mean of MongeElkan in both directions.
func SymMongeElkan(a, b string) float64 {
	var s Scratch
	return symMongeElkanP(oraclePrepared(a), oraclePrepared(b), &s)
}

// NumericSimilarity parses a and b as numbers and returns
// 1 - |x-y|/max(|x|,|y|), clamped to [0,1]. Unparseable or absent values
// yield 0 unless both are absent (1: vacuously equal).
func NumericSimilarity(a, b string) float64 {
	return numericSimilarityP(oraclePrepared(a), oraclePrepared(b), nil)
}

// CosineTFIDF returns the TF-IDF-weighted cosine similarity of the token
// vectors of a and b under the supplied corpus statistics. A nil corpus
// degrades to uniform IDF (plain cosine).
func CosineTFIDF(a, b string, c *Corpus) float64 {
	ca, cb := strutil.TokenCounts(a), strutil.TokenCounts(b)
	if len(ca) == 0 && len(cb) == 0 {
		return 1
	}
	if len(ca) == 0 || len(cb) == 0 {
		return 0
	}
	// Accumulate in sorted token order: float addition is not associative,
	// and map iteration order would make the result run-dependent.
	dot, na, nb := 0.0, 0.0, 0.0
	for _, t := range slices.Sorted(maps.Keys(ca)) {
		w := idfWeight(c, t)
		va := float64(ca[t]) * w
		na += va * va
		if fb, ok := cb[t]; ok {
			dot += va * float64(fb) * w
		}
	}
	for _, t := range slices.Sorted(maps.Keys(cb)) {
		w := idfWeight(c, t)
		vb := float64(cb[t]) * w
		nb += vb * vb
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// NonSubstring is the entity-name difference metric: 1 if neither normalized
// value is a substring of the other. Missing values are treated as
// uninformative (0).
func NonSubstring(a, b string) float64 {
	return nonSubstringP(oraclePrepared(a), oraclePrepared(b), nil)
}

// NonPrefix is 1 if neither normalized value is a prefix of the other.
func NonPrefix(a, b string) float64 {
	return nonPrefixP(oraclePrepared(a), oraclePrepared(b), nil)
}

// NonSuffix is 1 if neither normalized value is a suffix of the other.
func NonSuffix(a, b string) float64 {
	return nonSuffixP(oraclePrepared(a), oraclePrepared(b), nil)
}

// AbbrNonSubstring is 1 if the first-letter abbreviation of one value is not
// a substring of the other value's abbreviation, and the abbreviation of one
// value is also not a substring of the other full value (covers
// "VLDB" vs "Very Large Data Bases").
func AbbrNonSubstring(a, b string) float64 {
	return abbrNonSubstringP(oraclePrepared(a), oraclePrepared(b), nil)
}

// DiffCardinality is the entity-set difference metric: 1 if the two sets
// contain different numbers of entity names. Empty sets are uninformative.
func DiffCardinality(a, b string) float64 {
	return diffCardinalityP(oraclePrepared(a), oraclePrepared(b), nil)
}

// DistinctEntity counts the entity names that appear in exactly one of the
// two sets, with fuzzy name matching (an entity counts as shared when some
// entity on the other side has Jaro-Winkler similarity ≥ 0.9, which absorbs
// initials and typos). This is the paper's distinct-entity metric from
// Example 1.
func DistinctEntity(a, b string) float64 {
	var s Scratch
	return distinctEntityP(oraclePrepared(a), oraclePrepared(b), &s)
}

// YearDiff is the numeric difference metric specialized for year-like
// attributes: 1 if both values parse as numbers and differ, 0 otherwise.
// It realizes the paper's running-example rule r_i[Year] != r_j[Year].
func YearDiff(a, b string) float64 {
	return yearDiffP(oraclePrepared(a), oraclePrepared(b), nil)
}

// NumericGap returns the relative numeric gap |x-y|/max(|x|,|y|) in [0,1];
// 0 when either value is unparseable (uninformative) or both are zero.
func NumericGap(a, b string) float64 {
	return numericGapP(oraclePrepared(a), oraclePrepared(b), nil)
}

// DiffKeyToken counts the key (discriminating) tokens contained by exactly
// one of the two text values. A token is discriminating when its corpus IDF
// is at or above the corpus's key-token threshold; with a nil corpus every
// token of length ≥ 4 counts as key. This is the paper's diff-key-token
// metric for text-description attributes.
func DiffKeyToken(a, b string, c *Corpus) float64 {
	sa, sb := strutil.TokenSet(a), strutil.TokenSet(b)
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	count := 0
	for t := range sa {
		if _, shared := sb[t]; !shared && isKeyToken(t, c) {
			count++
		}
	}
	for t := range sb {
		if _, shared := sa[t]; !shared && isKeyToken(t, c) {
			count++
		}
	}
	return float64(count)
}

// YearDiffOrExact is 1 when the values differ either numerically or as
// normalized strings (used for categorical attributes).
func YearDiffOrExact(a, b string) float64 {
	var s Scratch
	return yearDiffOrExactP(oraclePrepared(a), oraclePrepared(b), &s)
}
