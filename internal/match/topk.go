package match

import "slices"

// Scored is one resolve candidate under the ranking key: ID is
// caller-defined (the facade passes a scratch position, tests pass record
// IDs), Rank is the score — higher is better, ties break toward the lower
// ID.
type Scored struct {
	ID   uint64
	Rank float64
}

// worse reports whether a ranks strictly below b.
//
//vetkit:hotpath
func (a Scored) worse(b Scored) bool {
	if a.Rank != b.Rank {
		return a.Rank < b.Rank
	}
	return a.ID > b.ID
}

// Compare orders a and b best first — Rank descending, ID ascending on
// ties — in the slices.SortFunc convention: negative when a ranks above b.
func (a Scored) Compare(b Scored) int {
	switch {
	case b.worse(a):
		return -1
	case a.worse(b):
		return 1
	}
	return 0
}

// Ranked is a candidate with the classifier probability it ranked on: a
// resolve leg's answer before any verdict is built. It carries the
// candidate's values and residue, so a verdict can be built for it after
// the record is deleted.
type Ranked struct {
	Candidate
	Prob float64
}

// Compare orders a and b best first — Prob descending, ID ascending on
// ties — in the slices.SortFunc convention.
func (a Ranked) Compare(b Ranked) int {
	return Scored{ID: a.ID, Rank: a.Prob}.Compare(Scored{ID: b.ID, Rank: b.Prob})
}

// TopK is a bounded best-k accumulator: a size-k min-heap whose root is the
// worst retained entry, so a stream of N candidates costs O(N log k) and
// the heap never grows past k. The zero value is unusable — Reset first.
type TopK struct {
	k int
	h []Scored
}

// Reset empties the accumulator and sets its bound. The backing array is
// retained across resets.
//
//vetkit:hotpath
func (t *TopK) Reset(k int) {
	t.k = k
	t.h = t.h[:0]
}

// Len returns how many entries are currently retained (min(k, offered)).
func (t *TopK) Len() int { return len(t.h) }

// Offer considers one candidate, keeping it only if it ranks among the k
// best seen so far. The heap grows to k once, then stays.
//
//vetkit:hotpath
func (t *TopK) Offer(s Scored) {
	if t.k <= 0 {
		return
	}
	if len(t.h) < t.k {
		t.h = append(t.h, s)
		t.siftUp(len(t.h) - 1)
		return
	}
	if !t.h[0].worse(s) {
		return // s ranks at or below the current worst retained entry
	}
	t.h[0] = s
	t.siftDown(0)
}

//vetkit:hotpath
func (t *TopK) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.h[i].worse(t.h[parent]) {
			return
		}
		t.h[i], t.h[parent] = t.h[parent], t.h[i]
		i = parent
	}
}

//vetkit:hotpath
func (t *TopK) siftDown(i int) {
	for {
		worst := i
		if l := 2*i + 1; l < len(t.h) && t.h[l].worse(t.h[worst]) {
			worst = l
		}
		if r := 2*i + 2; r < len(t.h) && t.h[r].worse(t.h[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		t.h[i], t.h[worst] = t.h[worst], t.h[i]
		i = worst
	}
}

// AppendSorted appends the retained entries to dst, best first (Rank
// descending, ID ascending on ties), and returns the extended slice. The
// accumulator is left in an unspecified order — Reset before reuse.
func (t *TopK) AppendSorted(dst []Scored) []Scored {
	base := len(dst)
	dst = append(dst, t.h...)
	slices.SortFunc(dst[base:], Scored.Compare)
	return dst
}
