package learnrisk

import (
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/match"
	"repro/internal/partition"
)

// TestResolvePartitionedMatchesFlat is the cross-layer equivalence proof
// on the real model: a partitioned store and a flat store fed the same
// interleaved adds and deletes must answer every probe with the identical
// ranked verdicts — IDs, order and score bits — including under an
// aggressive MaxBlockSize where the partitions' summed live counts decide
// the pruning.
func TestResolvePartitionedMatchesFlat(t *testing.T) {
	w, m := trainedModel(t)
	right := w.inner.Right.Records
	for _, tc := range []struct {
		parts int
		cfg   MatchConfig
	}{
		{parts: 1, cfg: MatchConfig{}},
		{parts: 4, cfg: MatchConfig{}},
		{parts: 3, cfg: MatchConfig{MaxBlockSize: 4}},
	} {
		flat, err := m.NewMatchStore(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := m.NewPartitionedMatchStore(tc.parts, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(tc.parts)))
		for i, r := range right {
			fid, err := flat.Add(r.Values)
			if err != nil {
				t.Fatal(err)
			}
			pid, err := ps.Add(r.Values)
			if err != nil {
				t.Fatal(err)
			}
			if fid != pid {
				t.Fatalf("parts=%d: record %d got flat ID %d, partitioned ID %d", tc.parts, i, fid, pid)
			}
			// Interleave deletes so tombstoned postings, and the live
			// counts pruning sums, are part of what the equivalence covers.
			if i%7 == 3 {
				id := uint64(rng.Intn(i + 1))
				if _, err := ps.Delete(id); err != nil {
					t.Fatal(err)
				}
				flat.Delete(id)
			}
		}
		for li := 0; li < len(w.inner.Left.Records) && li < 20; li++ {
			probe := w.inner.Left.Records[li].Values
			want, err := m.Resolve(flat, probe, 5)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.ResolvePartitioned(ps, probe, 5)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("parts=%d probe %d: got %d results, want %d\ngot:  %v\nwant: %v",
					tc.parts, li, len(got), len(want), got, want)
			}
			for i := range got {
				if got[i].ID != want[i].ID || got[i].Score != want[i].Score || !slices.Equal(got[i].Values, want[i].Values) {
					t.Fatalf("parts=%d probe %d result %d diverged\ngot:  %+v\nwant: %+v",
						tc.parts, li, i, got[i], want[i])
				}
			}
		}
	}
}

// TestResolveShardHonorsSkip pins the per-partition leg the router calls
// (rankInto with the router's skip list): without a skip list its ranking,
// given verdicts, is the flat resolve, and skipping every probe token
// removes every candidate, like local stop-token pruning would.
func TestResolveShardHonorsSkip(t *testing.T) {
	w, m, st, _ := resolveFixture(t)
	probe := w.inner.Right.Records[0].Values
	var skip []string
	if err := st.DistinctTokens(probe, func(tok string) { skip = append(skip, tok) }); err != nil {
		t.Fatal(err)
	}
	slices.Sort(skip) // the router passes the skip list sorted ascending
	want, err := m.Resolve(st, probe, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("self-probe resolved to nothing")
	}
	s := m.acquireResolveScratch()
	defer m.resolvePool.Put(s)
	m.rankInto(st, probe, 5, nil, s, nil)
	if got := m.verdicts(probe, s.ranked, s, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("leg without a skip list diverged from Resolve\ngot:  %+v\nwant: %+v", got, want)
	}
	if m.rankInto(st, probe, 5, skip, s, nil); len(s.ranked) != 0 {
		t.Fatalf("fully skipped probe still ranked %v", s.ranked)
	}
}

// TestResolvePartitionedDeleteRace pins the delete race of the
// scatter-gather resolve: a record deleted after its partition ranked it —
// here every leg's own winner, deleted through the store from the leg hook
// — keeps its verdict, so the resolve answers exactly what the flat store
// answered before the deletes: as many results, the same verdicts.
func TestResolvePartitionedDeleteRace(t *testing.T) {
	w, m := trainedModel(t)
	t.Cleanup(func() { resolveLegHook = nil })
	const k = 5
	for _, parts := range []int{1, 4} {
		flat, err := m.NewMatchStore(MatchConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ps, err := m.NewPartitionedMatchStore(parts, MatchConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range w.inner.Right.Records {
			if _, err := flat.Add(r.Values); err != nil {
				t.Fatal(err)
			}
			if _, err := ps.Add(r.Values); err != nil {
				t.Fatal(err)
			}
		}
		// A probe with a full top k, so a dropped winner would show.
		var probe []string
		var want []MatchResult
		for _, r := range w.inner.Left.Records {
			if want, err = m.Resolve(flat, r.Values, k); err != nil {
				t.Fatal(err)
			}
			if len(want) == k {
				probe = r.Values
				break
			}
		}
		if probe == nil {
			t.Fatalf("no probe resolves to %d matches", k)
		}

		var deleted atomic.Int64
		resolveLegHook = func(res []match.Ranked) {
			if len(res) == 0 {
				return
			}
			if ok, err := ps.Delete(res[0].ID); !ok || err != nil {
				t.Errorf("parts=%d: deleting leg winner %d = (%v, %v)", parts, res[0].ID, ok, err)
				return
			}
			deleted.Add(1)
		}
		got, err := m.ResolvePartitioned(ps, probe, k)
		resolveLegHook = nil
		if err != nil {
			t.Fatal(err)
		}
		if deleted.Load() == 0 {
			t.Fatalf("parts=%d: the hook deleted no winner; the race was not exercised", parts)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parts=%d: resolve racing %d winner deletes diverged from the flat store\ngot:  %+v\nwant: %+v",
				parts, deleted.Load(), got, want)
		}
		if live := ps.Len(); live != flat.Len()-int(deleted.Load()) {
			t.Errorf("parts=%d: live = %d after %d deletes of %d records", parts, live, deleted.Load(), flat.Len())
		}
	}
}

// TestResolvePartitionedValidation covers the partitioned facade's error
// paths.
func TestResolvePartitionedValidation(t *testing.T) {
	_, m := trainedModel(t)
	if _, err := m.ResolvePartitioned(nil, []string{"x"}, 5); err == nil {
		t.Error("nil store accepted")
	}
	ps, err := m.NewPartitionedMatchStore(2, MatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	bad := make([]string, ps.Arity()+1)
	if _, err := m.ResolvePartitioned(ps, bad, 5); err == nil {
		t.Error("arity-mismatched probe accepted")
	}
	if _, err := m.ResolvePartitioned(ps, make([]string, ps.Arity()), 0); err == nil {
		t.Error("k=0 accepted")
	}
	wrongStore, err := partition.New(ps.Arity()+1, nil, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ResolvePartitioned(wrongStore, bad, 5); err == nil {
		t.Error("arity-mismatched store accepted")
	}
}
