package metrics

import (
	"maps"
	"slices"
	"strings"

	"repro/internal/strutil"
)

// This file adds the alignment and phonetic similarity metrics standard in
// the record-linkage literature [16] (Christen's "Data Matching"), extending
// the basic-metric vocabulary available to rule generation and to users who
// assemble their own catalogs.

// NeedlemanWunsch returns the global-alignment similarity of the normalized
// values under unit match reward and unit gap/mismatch penalties, scaled to
// [0,1] by the longer length. Identical strings score 1.
func NeedlemanWunsch(a, b string) float64 {
	ra := []rune(strutil.Normalize(a))
	rb := []rune(strutil.Normalize(b))
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = -j
	}
	for i := 1; i <= la; i++ {
		cur[0] = -i
		for j := 1; j <= lb; j++ {
			score := -1
			if ra[i-1] == rb[j-1] {
				score = 1
			}
			cur[j] = max3(prev[j-1]+score, prev[j]-1, cur[j-1]-1)
		}
		prev, cur = cur, prev
	}
	m := la
	if lb > m {
		m = lb
	}
	s := float64(prev[lb])
	if s < 0 {
		s = 0
	}
	return s / float64(m)
}

// SmithWaterman returns the local-alignment similarity of the normalized
// values (best matching substring pair) under unit match reward and unit
// gap/mismatch penalties, scaled by the shorter length. It is the metric of
// choice when one value embeds the other with noise.
func SmithWaterman(a, b string) float64 {
	ra := []rune(strutil.Normalize(a))
	rb := []rune(strutil.Normalize(b))
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	best := 0
	for i := 1; i <= la; i++ {
		for j := 1; j <= lb; j++ {
			score := -1
			if ra[i-1] == rb[j-1] {
				score = 1
			}
			v := max3(prev[j-1]+score, prev[j]-1, cur[j-1]-1)
			if v < 0 {
				v = 0
			}
			cur[j] = v
			if v > best {
				best = v
			}
		}
		prev, cur = cur, prev
		for k := range cur {
			cur[k] = 0
		}
	}
	m := la
	if lb < m {
		m = lb
	}
	return float64(best) / float64(m)
}

func max3(a, b, c int) int {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}

// Soundex returns the 4-character American Soundex code of the first token
// of the normalized value ("" for empty input). Names that sound alike get
// equal codes ("robert" and "rupert" → r163).
func Soundex(s string) string {
	toks := strutil.Tokens(s)
	if len(toks) == 0 {
		return ""
	}
	word := toks[0]
	code := func(r rune) byte {
		switch r {
		case 'b', 'f', 'p', 'v':
			return '1'
		case 'c', 'g', 'j', 'k', 'q', 's', 'x', 'z':
			return '2'
		case 'd', 't':
			return '3'
		case 'l':
			return '4'
		case 'm', 'n':
			return '5'
		case 'r':
			return '6'
		}
		return 0 // vowels, h, w, y and non-letters
	}
	runes := []rune(word)
	var b strings.Builder
	b.WriteRune(runes[0])
	last := code(runes[0])
	for _, r := range runes[1:] {
		c := code(r)
		if c != 0 && c != last {
			b.WriteByte(c)
			if b.Len() == 4 {
				break
			}
		}
		if r != 'h' && r != 'w' { // h and w do not reset the last code
			last = c
		}
	}
	out := b.String()
	for len(out) < 4 {
		out += "0"
	}
	return out
}

// SoundexMatch is 1 when the first tokens of the two values share a Soundex
// code (phonetically alike), 0 otherwise. Empty values are uninformative
// and yield 0 unless both are empty (1).
func SoundexMatch(a, b string) float64 {
	sa, sb := Soundex(a), Soundex(b)
	if sa == "" && sb == "" {
		return 1
	}
	if sa == "" || sb == "" {
		return 0
	}
	if sa == sb {
		return 1
	}
	return 0
}

// TFIDFJaccard is a corpus-weighted Jaccard index: the IDF mass of the
// shared tokens over the IDF mass of the token union. Rare shared tokens
// count more than stop words — the soft version of diff-key-token's logic on
// the similarity side.
func TFIDFJaccard(a, b string, c *Corpus) float64 {
	sa := strutil.TokenSet(a)
	sb := strutil.TokenSet(b)
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	var shared, union float64
	for _, t := range slices.Sorted(maps.Keys(sa)) {
		w := idfWeight(c, t)
		union += w
		if _, ok := sb[t]; ok {
			shared += w
		}
	}
	for _, t := range slices.Sorted(maps.Keys(sb)) {
		if _, ok := sa[t]; !ok {
			union += idfWeight(c, t)
		}
	}
	if union == 0 {
		return 1
	}
	return shared / union
}
