// Package metrics implements the basic similarity and difference metrics on
// attribute values that LearnRisk's rule generation consumes (paper Section
// 5.1, Figure 5).
//
// Similarity metrics capture the common part of two values and indicate
// equivalence; difference metrics directly capture what distinguishes two
// values and indicate inequivalence (non-substring, distinct-entity,
// diff-key-token, ...). All metrics return float64 so that the decision-tree
// rule generator can threshold them uniformly.
//
// Every catalog metric is one kernel over *Prepared values (Metric.PFn):
// the feature store and the serving path prepare each value once and share
// it across every metric and candidate pair. The package's tests hold an
// independent string form of each metric as the oracle the kernels must
// match bit for bit.
package metrics

import "math"

// editSimilarityP returns 1 - Levenshtein(a,b)/max(len(a),len(b)) over the
// normalized runes, a similarity in [0,1]. Two empty values are maximally
// similar.
func editSimilarityP(pa, pb *Prepared, s *Scratch) float64 {
	ra, rb := pa.Runes(), pb.Runes()
	m := len(ra)
	if len(rb) > m {
		m = len(rb)
	}
	if m == 0 {
		return 1
	}
	return 1 - float64(levenshteinLen(ra, rb, s))/float64(m)
}

// jaroRunes returns the Jaro similarity of two rune strings, in [0,1].
func jaroRunes(ra, rb []rune, s *Scratch) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := la
	if lb > window {
		window = lb
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	matchedA, matchedB := s.bools2(la, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if !matchedB[j] && ra[i] == rb[j] {
				matchedA[i] = true
				matchedB[j] = true
				matches++
				break
			}
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchedA[i] {
			continue
		}
		for !matchedB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

func jaroWinklerP(pa, pb *Prepared, s *Scratch) float64 {
	return jaroWinklerRunes(pa.Runes(), pb.Runes(), s)
}

// jaroWinklerRunes returns the Jaro-Winkler similarity with the standard
// prefix scale of 0.1 and a maximum rewarded prefix of 4 runes.
func jaroWinklerRunes(ra, rb []rune, s *Scratch) float64 {
	j := jaroRunes(ra, rb, s)
	p := 0
	for p < len(ra) && p < len(rb) && ra[p] == rb[p] {
		p++
	}
	if p > 4 {
		p = 4
	}
	return j + float64(p)*0.1*(1-j)
}

// jaccardTokensP returns the Jaccard index of the token sets. Two empty
// token sets are maximally similar.
func jaccardTokensP(pa, pb *Prepared, _ *Scratch) float64 {
	ta, _ := pa.TokenCounts()
	tb, _ := pb.TokenCounts()
	return jaccardSorted(ta, tb)
}

// jaccardEntitiesP returns the Jaccard index of the entity-name sets of two
// entity-set values such as author lists (the paper's entity-based
// JaccardIndex in Example 1).
func jaccardEntitiesP(pa, pb *Prepared, _ *Scratch) float64 {
	return jaccardSorted(pa.EntitySet(), pb.EntitySet())
}

// jaccardSorted is the Jaccard index of two ascending distinct lists.
func jaccardSorted(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := sharedCount(a, b)
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// overlapTokensP returns |A∩B| / min(|A|,|B|) over token sets (the overlap
// coefficient). Empty-vs-empty is 1; empty-vs-nonempty is 0.
func overlapTokensP(pa, pb *Prepared, _ *Scratch) float64 {
	ta, _ := pa.TokenCounts()
	tb, _ := pb.TokenCounts()
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	return float64(sharedCount(ta, tb)) / float64(min(len(ta), len(tb)))
}

func lcsP(pa, pb *Prepared, s *Scratch) float64 {
	return lcsRunes(pa.Runes(), pb.Runes(), s)
}

// lcsRunes returns the length of the longest common subsequence of two
// rune strings, normalized by the length of the longer one, yielding [0,1].
func lcsRunes(ra, rb []rune, s *Scratch) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	// The shorter side becomes the bit dimension; below the cutoff the
	// register DP wins. Both compute the exact DP cell values.
	var l int
	pat, text := ra, rb
	if len(pat) > len(text) {
		pat, text = text, pat
	}
	if len(pat) >= bitLCSMin {
		l = lcsLenBits(pat, text, s)
	} else {
		l = lcsLenDP(ra, rb, s)
	}
	m := la
	if lb > m {
		m = lb
	}
	return float64(l) / float64(m)
}

// mongeElkanP returns the Monge-Elkan similarity: the average over tokens
// of a of the best Jaro-Winkler match against tokens of b. Asymmetric by
// definition; symMongeElkanP averages both directions. It relies on tokens being normalization fixed points (a token is
// a run of lowercase letters/digits, so Normalize(token) == token), which
// lets the inner Jaro-Winkler run on the cached token runes directly.
func mongeElkanP(pa, pb *Prepared, s *Scratch) float64 {
	ta, tb := pa.TokenRunes(), pb.TokenRunes()
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range ta {
		best := 0.0
		for _, y := range tb {
			if jw := jaroWinklerRunes(x, y, s); jw > best {
				best = jw
			}
		}
		sum += best
	}
	return sum / float64(len(ta))
}

func symMongeElkanP(pa, pb *Prepared, s *Scratch) float64 {
	return (mongeElkanP(pa, pb, s) + mongeElkanP(pb, pa, s)) / 2
}

// numericSimilarityP parses a and b as numbers and returns
// 1 - |x-y|/max(|x|,|y|), clamped to [0,1]. Unparseable or absent values
// yield 0 unless both are absent (1: vacuously equal).
func numericSimilarityP(pa, pb *Prepared, _ *Scratch) float64 {
	x, okA := pa.Num()
	y, okB := pb.Num()
	if !okA && !okB {
		return 1
	}
	if !okA || !okB {
		return 0
	}
	if x == y {
		return 1
	}
	m := math.Max(math.Abs(x), math.Abs(y))
	if m == 0 {
		return 1
	}
	s := 1 - math.Abs(x-y)/m
	if s < 0 {
		return 0
	}
	return s
}

// cosineTFIDFP returns the TF-IDF-weighted cosine similarity of the token
// vectors under the supplied corpus statistics. A nil corpus degrades to
// uniform IDF (plain cosine).
func cosineTFIDFP(pa, pb *Prepared, c *Corpus, _ *Scratch) float64 {
	ta, ca := pa.TokenCounts()
	tb, cb := pb.TokenCounts()
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	// One merge walk over both ascending token lists. Float addition is not
	// associative, so each sum keeps a fixed order: na over a's tokens, nb
	// over b's, dot over the shared ones, each in ascending token order.
	dot, na, nb := 0.0, 0.0, 0.0
	i, j := 0, 0
	for i < len(ta) || j < len(tb) {
		switch d := mergeStep(ta, tb, i, j); {
		case d < 0:
			va := float64(ca[i]) * idfWeight(c, ta[i])
			na += va * va
			i++
		case d > 0:
			vb := float64(cb[j]) * idfWeight(c, tb[j])
			nb += vb * vb
			j++
		default:
			w := idfWeight(c, ta[i])
			va := float64(ca[i]) * w
			na += va * va
			dot += va * float64(cb[j]) * w
			vb := float64(cb[j]) * w
			nb += vb * vb
			i++
			j++
		}
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

func idfWeight(c *Corpus, token string) float64 {
	if c == nil {
		return 1
	}
	return c.IDF(token)
}
