// Package strutil provides string normalization and tokenization primitives
// shared by the similarity and difference metrics used for entity resolution.
//
// All helpers are pure functions over plain strings so they can be exercised
// by property-based tests and reused by every metric without hidden state.
package strutil

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Normalize lowercases s, replaces punctuation with spaces and collapses
// runs of whitespace into single spaces. It is the canonical preprocessing
// step applied to every attribute value before metric computation.
func Normalize(s string) string {
	return string(AppendNormalized(make([]byte, 0, len(s)), s))
}

// AppendNormalized appends the Normalize form of s to dst and returns the
// extended slice. It is the allocation-free core of Normalize: callers that
// own a reusable buffer (metrics.Prepared.Reset) pay no
// heap allocation in steady state. The bytes appended are byte-identical to
// Normalize(s).
func AppendNormalized(dst []byte, s string) []byte {
	lastSpace := true
	pending := false
	for i := 0; i < len(s); {
		var r rune
		if c := s[i]; c < utf8.RuneSelf {
			// ASCII fast path: classification and lowercase match
			// unicode.IsLetter/IsDigit/ToLower exactly on this range.
			i++
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') {
				// A separator run becomes one space, emitted lazily so a
				// trailing run vanishes (Normalize's TrimRight).
				if pending {
					dst = append(dst, ' ')
					pending = false
				}
				dst = append(dst, c)
				lastSpace = false
			} else if !lastSpace {
				pending = true
				lastSpace = true
			}
			continue
		}
		var size int
		r, size = utf8.DecodeRuneInString(s[i:])
		i += size
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if pending {
				dst = append(dst, ' ')
				pending = false
			}
			dst = utf8.AppendRune(dst, unicode.ToLower(r))
			lastSpace = false
		} else if !lastSpace {
			pending = true
			lastSpace = true
		}
	}
	return dst
}

// Tokens splits s (after normalization) into its whitespace-separated tokens.
// The result is never nil; an empty or all-punctuation input yields an empty
// slice.
func Tokens(s string) []string {
	n := Normalize(s)
	if n == "" {
		return []string{}
	}
	return strings.Fields(n)
}

// TokenSet returns the set of distinct tokens of s.
func TokenSet(s string) map[string]struct{} {
	set := make(map[string]struct{})
	for _, t := range Tokens(s) {
		set[t] = struct{}{}
	}
	return set
}

// TokenCounts returns the multiset of tokens of s as a token→count map.
func TokenCounts(s string) map[string]int {
	counts := make(map[string]int)
	for _, t := range Tokens(s) {
		counts[t]++
	}
	return counts
}

// Abbreviation returns the first-letter abbreviation of s: the concatenation
// of the first rune of each token. "Very Large Data Bases" → "vldb".
// Used by the abbr-non-substring/-prefix/-suffix difference metrics.
func Abbreviation(s string) string {
	var b strings.Builder
	for _, t := range Tokens(s) {
		r := []rune(t)
		if len(r) > 0 {
			b.WriteRune(r[0])
		}
	}
	return b.String()
}

// SplitEntities splits an entity-set attribute value (for example an author
// list) on commas, semicolons and the literals " and " / " & "
// (case-insensitive), normalizing each element. Empty elements are dropped.
// The result is never nil.
func SplitEntities(s string) []string {
	buf, ends := AppendEntitySplit(nil, nil, s)
	out := make([]string, 0, len(ends))
	start := 0
	for _, end := range ends {
		out = append(out, string(buf[start:end]))
		start = end
	}
	return out
}

// AppendEntitySplit is the allocation-free core of SplitEntities: each
// normalized entity of s is appended to buf back to back, and each entity's
// end offset within buf is appended to ends. Entities that normalize to ""
// are dropped, exactly as SplitEntities drops them. Callers that own
// reusable buf/ends buffers (metrics.Prepared.Reset) pay
// no heap allocation in steady state.
//
// The separator semantics replicate the historical implementation
// (ToLower, then a left-to-right Replacer pass over ";", " and ", " & ",
// then a split on ","): a boundary is a ';' or ',' byte, or a
// case-insensitive " and " / " & " run; after a multi-byte separator
// matches, scanning resumes past it. All separators are pure ASCII and no
// Unicode lowercase mapping produces the bytes involved, so scanning the
// original string is equivalent to scanning its ToLower form.
func AppendEntitySplit(buf []byte, ends []int, s string) ([]byte, []int) {
	flush := func(seg string) {
		before := len(buf)
		buf = AppendNormalized(buf, seg)
		if len(buf) > before {
			ends = append(ends, len(buf))
		}
	}
	start := 0
	for i := 0; i < len(s); {
		switch {
		case s[i] == ';' || s[i] == ',':
			flush(s[start:i])
			i++
			start = i
		case s[i] == ' ' && hasFoldPrefix(s[i:], " and "):
			flush(s[start:i])
			i += len(" and ")
			start = i
		case s[i] == ' ' && hasFoldPrefix(s[i:], " & "):
			flush(s[start:i])
			i += len(" & ")
			start = i
		default:
			i++
		}
	}
	flush(s[start:])
	return buf, ends
}

// hasFoldPrefix reports whether s starts with the ASCII-lowercase pattern,
// comparing ASCII letters case-insensitively.
func hasFoldPrefix(s, pattern string) bool {
	if len(s) < len(pattern) {
		return false
	}
	for i := 0; i < len(pattern); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != pattern[i] {
			return false
		}
	}
	return true
}

// SubstringOfEither reports whether the shorter of two normalized values
// is a substring of the longer. An empty value is a substring of anything.
func SubstringOfEither(na, nb string) bool {
	if len(na) > len(nb) {
		na, nb = nb, na
	}
	return strings.Contains(nb, na)
}

// PrefixOfEither reports whether the shorter of two normalized values is a
// prefix of the longer.
func PrefixOfEither(na, nb string) bool {
	if len(na) > len(nb) {
		na, nb = nb, na
	}
	return strings.HasPrefix(nb, na)
}

// SuffixOfEither reports whether the shorter of two normalized values is a
// suffix of the longer.
func SuffixOfEither(na, nb string) bool {
	if len(na) > len(nb) {
		na, nb = nb, na
	}
	return strings.HasSuffix(nb, na)
}
