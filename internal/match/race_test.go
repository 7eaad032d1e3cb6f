package match

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentAddDeleteProbe hammers one store from adder, deleter,
// prober and compactor goroutines. Run under -race (make race wires it in):
// the properties checked here are "no torn reads across compaction" ones —
// every candidate carries a full record of the right arity, every
// candidate list is sorted and duplicate-free — not result determinism,
// which concurrent interleavings do not promise.
func TestConcurrentAddDeleteProbe(t *testing.T) {
	const arity = 3
	st := mustStore(t, arity, Config{CompactMinDead: 2, CompactFrac: 0.3})
	var maxID atomic.Uint64

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				id, err := st.Add(randValues(rng, arity))
				if err != nil {
					t.Error(err)
					return
				}
				for {
					cur := maxID.Load()
					if id <= cur || maxID.CompareAndSwap(cur, id) {
						break
					}
				}
			}
		}(int64(g))
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for i := 0; i < 400; i++ {
				if hi := maxID.Load(); hi > 0 {
					st.Delete(rng.Uint64() % (hi + 1))
				}
			}
		}(int64(g))
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(200 + seed))
			var ps ProbeScratch
			var cands []Candidate
			for i := 0; i < 200; i++ {
				var err error
				cands, err = st.AppendCandidates(cands[:0], randValues(rng, arity), &ps, nil)
				if err != nil {
					t.Error(err)
					return
				}
				for j, c := range cands {
					if j > 0 && cands[j-1].ID >= c.ID {
						t.Errorf("candidates unsorted or duplicated: %v", candidateIDs(cands))
						return
					}
					if len(c.Values) != arity {
						t.Errorf("candidate %d carries a torn record of %d values", c.ID, len(c.Values))
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			st.Compact()
			st.Stats()
		}
	}()
	wg.Wait()

	stats := st.Stats()
	if stats.Added != 4*300 {
		t.Errorf("adds = %d, want %d", stats.Added, 4*300)
	}
	if stats.Live != int(stats.Added-stats.Deleted) {
		t.Errorf("live %d != added %d - deleted %d", stats.Live, stats.Added, stats.Deleted)
	}
	// After the dust settles, every probe agrees with the batch oracle
	// again (single-threaded now), and the tombstone gauge has no drift
	// from racing delete/compaction interleavings: a full Compact must
	// drain it to exactly zero.
	st.Compact()
	if tomb := st.Stats().Tombstones; tomb != 0 {
		t.Errorf("tombstone gauge = %d after quiescent Compact, want 0 (delete/compaction accounting drifted)", tomb)
	}
	var ids []uint64
	var values [][]string
	for id := uint64(0); id <= maxID.Load(); id++ {
		if vals, ok := st.Get(id); ok {
			ids = append(ids, id)
			values = append(values, vals)
		}
	}
	rng := rand.New(rand.NewSource(7))
	var ps ProbeScratch
	for i := 0; i < 10; i++ {
		probe := randValues(rng, arity)
		cands, err := st.AppendCandidates(nil, probe, &ps, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := candidateIDs(cands)
		want := batchOracle(probe, ids, values, st.Config(), arity)
		if !slices.Equal(got, want) {
			t.Fatalf("post-race probe diverged:\n got %v\nwant %v", got, want)
		}
	}
}

// TestConcurrentAddAtSameID races AddAt calls that name the same IDs: of
// the calls for one ID exactly one may install the record. A second
// install would list the ID twice in its token's posting, so a one-token
// probe would count two shared tokens and return it under
// MinSharedTokens 2.
func TestConcurrentAddAtSameID(t *testing.T) {
	const ids, racers = 2000, 4
	st := mustStore(t, 1, Config{MinSharedTokens: 2, MaxBlockSize: -1})
	wins := make([]atomic.Int32, ids)
	var wg sync.WaitGroup
	for g := 0; g < racers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range ids {
				if st.AddAt(uint64(id), []string{"shared"}) == nil {
					wins[id].Add(1)
				}
			}
		}()
	}
	wg.Wait()
	for id := range wins {
		if n := wins[id].Load(); n != 1 {
			t.Fatalf("ID %d: %d AddAt calls succeeded, want exactly 1", id, n)
		}
	}
	if got := st.Stats().Added; got != ids {
		t.Errorf("Stats().Added = %d, want %d", got, ids)
	}
	var ps ProbeScratch
	got, err := st.AppendCandidates(nil, []string{"shared"}, &ps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("one-token probe under MinSharedTokens 2 returned %d candidates, want 0", len(got))
	}
}
