package match

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

func mustStore(t *testing.T, arity int, cfg Config) *Store {
	t.Helper()
	s, err := New(arity, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// candidateIDs returns the IDs of a probe's candidates, in order.
func candidateIDs(cs []Candidate) []uint64 {
	ids := make([]uint64, len(cs))
	for i, c := range cs {
		ids[i] = c.ID
	}
	return ids
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, nil, Config{}); err == nil {
		t.Error("arity 0 accepted")
	}
	if _, err := New(2, nil, Config{Attrs: []int{2}}); err == nil {
		t.Error("attr index beyond arity accepted")
	}
	if _, err := New(2, nil, Config{Attrs: []int{-1}}); err == nil {
		t.Error("negative attr index accepted")
	}
	s := mustStore(t, 3, Config{})
	if got := s.Config().Attrs; !slices.Equal(got, []int{0, 1, 2}) {
		t.Errorf("default attrs = %v", got)
	}
}

func TestAddGetDelete(t *testing.T) {
	s := mustStore(t, 2, Config{})
	if _, err := s.Add([]string{"only one"}); !errors.Is(err, ErrArity) {
		t.Errorf("short record: err = %v, want ErrArity", err)
	}
	vals := []string{"deep learning survey", "neural networks"}
	id, err := s.Add(vals)
	if err != nil {
		t.Fatal(err)
	}
	vals[0] = "mutated by caller" // the store must have copied
	got, ok := s.Get(id)
	if !ok || got[0] != "deep learning survey" {
		t.Fatalf("Get(%d) = %q, %v", id, got, ok)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	if !s.Delete(id) {
		t.Error("Delete returned false for a live record")
	}
	if s.Delete(id) {
		t.Error("double Delete returned true")
	}
	if _, ok := s.Get(id); ok {
		t.Error("Get found a deleted record")
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d after delete, want 0", s.Len())
	}
	id2, _ := s.Add([]string{"fresh record", "after delete"})
	if id2 == id {
		t.Errorf("record ID %d reused after delete", id)
	}
}

func TestCandidatesBasic(t *testing.T) {
	s := mustStore(t, 2, Config{})
	a, _ := s.Add([]string{"entity resolution survey", "vldb"})
	b, _ := s.Add([]string{"entity matching at scale", "sigmod"})
	c, _ := s.Add([]string{"graph databases", "icde"})
	var ps ProbeScratch

	got, err := s.AppendCandidates(nil, []string{"entity resolution", ""}, &ps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint64{a, b}; !slices.Equal(candidateIDs(got), want) {
		t.Errorf("candidates = %v, want %v", got, want)
	}
	// Each candidate carries the store's copy of its values.
	for _, c := range got {
		if want, _ := s.Get(c.ID); !slices.Equal(c.Values, want) {
			t.Errorf("candidate %d carries %q, Get returns %q", c.ID, c.Values, want)
		}
	}

	// MinSharedTokens raises the bar: only the record sharing both tokens.
	s2 := mustStore(t, 2, Config{MinSharedTokens: 2})
	a2, _ := s2.Add([]string{"entity resolution survey", "vldb"})
	s2.Add([]string{"entity matching at scale", "sigmod"})
	got, err = s2.AppendCandidates(nil, []string{"entity resolution", ""}, &ps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint64{a2}; !slices.Equal(candidateIDs(got), want) {
		t.Errorf("min-shared-2 candidates = %v, want %v", got, want)
	}

	// Deleting a record removes it from probe results immediately, even
	// before any compaction.
	if !s.Delete(a) {
		t.Fatal("delete failed")
	}
	got, err = s.AppendCandidates(nil, []string{"entity resolution", ""}, &ps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint64{b}; !slices.Equal(candidateIDs(got), want) {
		t.Errorf("candidates after delete = %v, want %v", got, want)
	}

	if _, err := s.AppendCandidates(nil, []string{"wrong arity"}, &ps, nil); !errors.Is(err, ErrArity) {
		t.Errorf("probe arity err = %v, want ErrArity", err)
	}
	_ = c
}

func TestTombstonesAndCompaction(t *testing.T) {
	s := mustStore(t, 1, Config{CompactMinDead: 2, CompactFrac: 0.4})
	var ids []uint64
	for i := 0; i < 10; i++ {
		id, err := s.Add([]string{"shared token stream"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids[:6] {
		s.Delete(id)
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Errorf("no compactions after 6 deletes with CompactMinDead=2: %+v", st)
	}
	var ps ProbeScratch
	got, err := s.AppendCandidates(nil, []string{"shared token"}, &ps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(candidateIDs(got), ids[6:]) {
		t.Errorf("candidates = %v, want %v", got, ids[6:])
	}

	// A full sweep drains every remaining tombstone and unindexes tokens
	// whose postings empty out.
	for _, id := range ids[6:] {
		s.Delete(id)
	}
	s.Compact()
	st = s.Stats()
	if st.Tombstones != 0 {
		t.Errorf("tombstones = %d after Compact, want 0", st.Tombstones)
	}
	if st.Tokens != 0 {
		t.Errorf("tokens = %d after deleting every record, want 0", st.Tokens)
	}
	if st.Added != 10 || st.Deleted != 10 || st.Live != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStatsProbeCounters(t *testing.T) {
	s := mustStore(t, 1, Config{})
	s.Add([]string{"alpha beta"})
	s.Add([]string{"beta gamma"})
	var ps ProbeScratch
	for i := 0; i < 3; i++ {
		if _, err := s.AppendCandidates(nil, []string{"beta"}, &ps, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Probes != 3 || st.Candidates != 6 {
		t.Errorf("probes=%d candidates=%d, want 3 and 6", st.Probes, st.Candidates)
	}
}

func TestTopK(t *testing.T) {
	var tk TopK
	tk.Reset(3)
	for i, r := range []float64{0.1, 0.9, 0.5, 0.9, 0.2, 0.7} {
		tk.Offer(Scored{ID: uint64(i), Rank: r})
	}
	got := tk.AppendSorted(nil)
	// Rank desc; the two 0.9 entries tie and break toward the lower ID.
	want := []Scored{{ID: 1, Rank: 0.9}, {ID: 3, Rank: 0.9}, {ID: 5, Rank: 0.7}}
	if !slices.Equal(got, want) {
		t.Errorf("top-3 = %v, want %v", got, want)
	}

	// Fewer offers than k just returns them all, sorted.
	tk.Reset(10)
	tk.Offer(Scored{ID: 0, Rank: 0.2})
	tk.Offer(Scored{ID: 1, Rank: 0.8})
	got = tk.AppendSorted(nil)
	want = []Scored{{ID: 1, Rank: 0.8}, {ID: 0, Rank: 0.2}}
	if !slices.Equal(got, want) {
		t.Errorf("under-full top-k = %v, want %v", got, want)
	}
}

func TestAddAtNextIDRange(t *testing.T) {
	s := mustStore(t, 1, Config{})
	if err := s.AddAt(7, []string{"alpha beta"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddAt(7, []string{"gamma"}); err == nil {
		t.Error("AddAt over a live ID accepted")
	}
	if err := s.AddAt(2, []string{"gamma delta"}); err != nil {
		t.Fatal(err)
	}
	if got := s.NextID(); got != 8 {
		t.Errorf("NextID = %d, want 8 (past the highest AddAt)", got)
	}
	// A fresh Add must not collide with the installed IDs.
	id, err := s.Add([]string{"epsilon"})
	if err != nil {
		t.Fatal(err)
	}
	if id != 8 {
		t.Errorf("Add after AddAt(7) assigned %d, want 8", id)
	}
	if err := s.AddAt(7, []string{"dup"}); err == nil {
		t.Error("AddAt(7) accepted twice")
	}
	// AddAt-installed records are indexed like any other.
	var ps ProbeScratch
	got, err := s.AppendCandidates(nil, []string{"gamma"}, &ps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint64{2}; !slices.Equal(candidateIDs(got), want) {
		t.Errorf("candidates = %v, want %v", got, want)
	}

	seen := map[uint64]string{}
	s.Range(func(id uint64, vals []string) bool {
		seen[id] = vals[0]
		return true
	})
	if len(seen) != 3 || seen[7] != "alpha beta" || seen[2] != "gamma delta" || seen[8] != "epsilon" {
		t.Errorf("Range saw %v", seen)
	}
	n := 0
	s.Range(func(uint64, []string) bool { n++; return false })
	if n != 1 {
		t.Errorf("Range ignored an early stop: visited %d", n)
	}
}

// TestAddAtReusedIDAfterDelete re-installs a deleted ID while its
// tombstones still sit in its postings. The new record must count once per
// token it has, and not at all for a token only the deleted record had.
func TestAddAtReusedIDAfterDelete(t *testing.T) {
	s := mustStore(t, 1, Config{MinSharedTokens: 2, MaxBlockSize: -1})
	candidates := func(probe string) []uint64 {
		t.Helper()
		var ps ProbeScratch
		got, err := s.AppendCandidates(nil, []string{probe}, &ps, nil)
		if err != nil {
			t.Fatal(err)
		}
		return candidateIDs(got)
	}
	if err := s.AddAt(5, []string{"shared"}); err != nil {
		t.Fatal(err)
	}
	if !s.Delete(5) {
		t.Fatal("delete of record 5 missed")
	}
	if err := s.AddAt(5, []string{"shared"}); err != nil {
		t.Fatal(err)
	}
	if got := candidates("shared"); len(got) != 0 {
		t.Errorf("one-token probe against a one-token record = %v, want none (MinSharedTokens 2)", got)
	}
	if st := s.Stats(); st.Tombstones != 0 || st.Live != 1 {
		t.Errorf("after re-adding 5: tombstones %d, live %d; want 0, 1", st.Tombstones, st.Live)
	}

	// The deleted record's other tokens must not count for the new one.
	if err := s.AddAt(9, []string{"alpha beta"}); err != nil {
		t.Fatal(err)
	}
	if !s.Delete(9) {
		t.Fatal("delete of record 9 missed")
	}
	if err := s.AddAt(9, []string{"gamma delta"}); err != nil {
		t.Fatal(err)
	}
	if got := candidates("alpha beta"); len(got) != 0 {
		t.Errorf("probe of the deleted record's tokens = %v, want none", got)
	}
	if got := candidates("gamma delta"); !slices.Equal(got, []uint64{9}) {
		t.Errorf("probe of the new record's tokens = %v, want [9]", got)
	}
	if st := s.Stats(); st.Tombstones != 0 || st.Live != 2 {
		t.Errorf("after re-adding 9: tombstones %d, live %d; want 0, 2", st.Tombstones, st.Live)
	}
}

func TestCandidatesSkip(t *testing.T) {
	s := mustStore(t, 1, Config{})
	a, _ := s.Add([]string{"alpha beta"})
	b, _ := s.Add([]string{"beta gamma"})
	var ps ProbeScratch

	got, err := s.AppendCandidates(nil, []string{"alpha beta gamma"}, &ps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint64{a, b}; !slices.Equal(candidateIDs(got), want) {
		t.Errorf("no skip: candidates = %v, want %v", got, want)
	}

	// Skipping "beta" leaves each record reachable only through its
	// remaining token; skipping both of a record's tokens drops it.
	got, err = s.AppendCandidates(nil, []string{"alpha beta gamma"}, &ps, []string{"beta"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint64{a, b}; !slices.Equal(candidateIDs(got), want) {
		t.Errorf("skip beta: candidates = %v, want %v", got, want)
	}
	got, err = s.AppendCandidates(nil, []string{"alpha beta gamma"}, &ps, []string{"alpha", "beta"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint64{b}; !slices.Equal(candidateIDs(got), want) {
		t.Errorf("skip alpha+beta: candidates = %v, want %v", got, want)
	}

	// A skipped token must also fail MinSharedTokens counting, exactly
	// like a pruned stop token.
	s2 := mustStore(t, 1, Config{MinSharedTokens: 2})
	s2.Add([]string{"alpha beta"})
	got, err = s2.AppendCandidates(nil, []string{"alpha beta"}, &ps, []string{"beta"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("skip under MinSharedTokens=2: candidates = %v, want none", got)
	}
}

func TestCmpStringBytes(t *testing.T) {
	cases := []struct {
		s    string
		b    string
		want int
	}{
		{"", "", 0}, {"a", "a", 0}, {"a", "b", -1}, {"b", "a", 1},
		{"ab", "a", 1}, {"a", "ab", -1}, {"abc", "abd", -1},
	}
	for _, c := range cases {
		if got := cmpStringBytes(c.s, []byte(c.b)); got != c.want {
			t.Errorf("cmpStringBytes(%q, %q) = %d, want %d", c.s, c.b, got, c.want)
		}
	}
	skip := []string{"alpha", "beta", "gamma"}
	for _, tok := range skip {
		if !skipHas(skip, []byte(tok)) {
			t.Errorf("skipHas missed %q", tok)
		}
	}
	for _, tok := range []string{"", "aaa", "bet", "betaa", "zeta"} {
		if skipHas(skip, []byte(tok)) {
			t.Errorf("skipHas false positive on %q", tok)
		}
	}
}

// TestTopKMatchesSort cross-checks the heap against a full sort on random
// streams, including heavy rank ties.
func TestTopKMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var tk TopK
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40)
		k := 1 + rng.Intn(8)
		all := make([]Scored, n)
		tk.Reset(k)
		for i := range all {
			all[i] = Scored{ID: uint64(i), Rank: float64(rng.Intn(5)) / 4}
			tk.Offer(all[i])
		}
		slices.SortFunc(all, func(a, b Scored) int {
			switch {
			case b.worse(a):
				return -1
			case a.worse(b):
				return 1
			}
			return 0
		})
		want := all
		if len(want) > k {
			want = want[:k]
		}
		got := tk.AppendSorted(nil)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d k=%d): top-k = %v, want %v", trial, n, k, got, want)
		}
	}
}
