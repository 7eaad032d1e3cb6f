package metrics

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// oracleLCSLen is the original O(m·n) two-row LCS dynamic program, kept as
// the oracle for the bit-parallel and register-blocked replacements.
func oracleLCSLen(ra, rb []rune) int {
	la, lb := len(ra), len(rb)
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for i := 1; i <= la; i++ {
		for j := 1; j <= lb; j++ {
			if ra[i-1] == rb[j-1] {
				cur[j] = prev[j-1] + 1
			} else if prev[j] >= cur[j-1] {
				cur[j] = prev[j]
			} else {
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
		for k := range cur {
			cur[k] = 0
		}
	}
	return prev[lb]
}

// oracleLevenshtein is the original min3 edit-distance DP.
func oracleLevenshtein(ra, rb []rune) int {
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			m := prev[j] + 1
			if cur[j-1]+1 < m {
				m = cur[j-1] + 1
			}
			if prev[j-1]+cost < m {
				m = prev[j-1] + cost
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// randRunes draws from a small alphabet (forcing repeats and matches) plus
// occasional non-ASCII runes (exercising the map side of the rune index).
func randRunes(rng *rand.Rand, n int) []rune {
	alphabet := []rune("abcdeé中𐍈 ")
	out := make([]rune, n)
	for i := range out {
		out[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return out
}

// TestLCSLenBitsMatchesOracle drives the bit-parallel path across the
// word-boundary sizes (63..130 runes) and fuzzed strings, one shared
// Scratch throughout so buffer reuse is exercised.
func TestLCSLenBitsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s Scratch
	for trial := 0; trial < 500; trial++ {
		la := bitLCSMin + rng.Intn(130)
		lb := la + rng.Intn(80) // pattern (shorter) side is la
		ra, rb := randRunes(rng, la), randRunes(rng, lb)
		want := oracleLCSLen(ra, rb)
		if got := lcsLenBits(ra, rb, &s); got != want {
			t.Fatalf("trial %d (m=%d n=%d): bits=%d oracle=%d", trial, la, lb, got, want)
		}
	}
	// Exact word-boundary patterns.
	for _, m := range []int{16, 63, 64, 65, 127, 128, 129} {
		ra := []rune(strings.Repeat("ab", m))[:m]
		rb := []rune(strings.Repeat("ba", m))[:m]
		if got, want := lcsLenBits(ra, rb, &s), oracleLCSLen(ra, rb); got != want {
			t.Fatalf("m=%d: bits=%d oracle=%d", m, got, want)
		}
	}
}

// TestLCSRunesMatchesOracleQuick property-tests the dispatching lcsRunes
// (register DP below the cutoff, bit-parallel above) on arbitrary strings.
func TestLCSRunesMatchesOracleQuick(t *testing.T) {
	var s Scratch
	f := func(a, b string) bool {
		ra, rb := []rune(a), []rune(b)
		la, lb := len(ra), len(rb)
		if la == 0 || lb == 0 {
			return true // handled by the empty-input guards
		}
		m := la
		if lb > m {
			m = lb
		}
		want := float64(oracleLCSLen(ra, rb)) / float64(m)
		return lcsRunes(ra, rb, &s) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// levSizes are the edge lengths of the sized edit-distance cases: empty,
// tiny, and around multiples of 64 runes.
var levSizes = []int{0, 1, 2, 63, 64, 65, 127, 128, 129, 130, 191, 200}

// TestLevenshteinLenMatchesOracleQuick pins the register-blocked edit
// distance to the original DP, in both argument orders, with one shared
// Scratch so buffer reuse is exercised: first on arbitrary strings (mostly
// non-ASCII runes), then on small-alphabet strings of uniform random length
// 0-149 (match-heavy), then on the levSizes lengths, both unrelated and a
// few edits apart.
func TestLevenshteinLenMatchesOracleQuick(t *testing.T) {
	var s Scratch
	check := func(ra, rb []rune) bool {
		want := oracleLevenshtein(ra, rb)
		return levenshteinLen(ra, rb, &s) == want && levenshteinLen(rb, ra, &s) == want
	}
	if err := quick.Check(func(a, b string) bool { return check([]rune(a), []rune(b)) }, nil); err != nil {
		t.Error(err)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		ra, rb := randRunes(rng, rng.Intn(150)), randRunes(rng, rng.Intn(150))
		if !check(ra, rb) {
			t.Fatalf("trial %d (%d, %d runes): got %d, %d (swapped) want %d", trial, len(ra), len(rb),
				levenshteinLen(ra, rb, &s), levenshteinLen(rb, ra, &s), oracleLevenshtein(ra, rb))
		}
	}
	sized := &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(11)), Values: func(args []reflect.Value, rng *rand.Rand) {
		ra := randRunes(rng, levSizes[rng.Intn(len(levSizes))])
		rb := randRunes(rng, levSizes[rng.Intn(len(levSizes))])
		if rng.Intn(2) == 0 {
			rb = mutateRunes(rng, ra, rng.Intn(6))
		}
		args[0], args[1] = reflect.ValueOf(ra), reflect.ValueOf(rb)
	}}
	if err := quick.Check(check, sized); err != nil {
		t.Error(err)
	}
}

// mutateRunes returns a copy of r with n random single-rune edits
// (insert, delete or substitute).
func mutateRunes(rng *rand.Rand, r []rune, n int) []rune {
	out := append([]rune(nil), r...)
	for ; n > 0; n-- {
		c := randRunes(rng, 1)[0]
		i := rng.Intn(len(out) + 1)
		switch op := rng.Intn(3); {
		case op == 0 || len(out) == 0 || i == len(out):
			out = append(out[:i], append([]rune{c}, out[i:]...)...)
		case op == 1:
			out = append(out[:i], out[i+1:]...)
		default:
			out[i] = c
		}
	}
	return out
}

// TestRuneIndexVersionWrap forces the uint32 version counter across its
// wrap-around and checks ids stay sound.
func TestRuneIndexVersionWrap(t *testing.T) {
	var ri runeIndex
	ri.ver = ^uint32(0) - 1
	for round := 0; round < 4; round++ {
		ri.begin()
		idA, _ := ri.add('a')
		idB, _ := ri.add('b')
		if idA != 0 || idB != 1 {
			t.Fatalf("round %d: ids %d,%d", round, idA, idB)
		}
		if ri.lookup('a') != 0 || ri.lookup('b') != 1 || ri.lookup('c') != -1 {
			t.Fatalf("round %d: lookups broken", round)
		}
	}
}
