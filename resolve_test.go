package learnrisk

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/blocking"
	"repro/internal/dataset"
	"repro/internal/match"
	"repro/internal/metrics"
)

// resolveFixture trains one small model and fills a match store with the
// workload's right-table records, returning the store and the ID of each
// right record (ids[i] is right record i).
func resolveFixture(t *testing.T) (*Workload, *Model, *match.Store, []uint64) {
	t.Helper()
	w, m := trainedModel(t)
	st, err := m.NewMatchStore(match.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, len(w.inner.Right.Records))
	for i, r := range w.inner.Right.Records {
		id, err := st.Add(r.Values)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return w, m, st, ids
}

// TestResolveMatchesBatchPipeline pins Resolve against the batch oracle
// built from the public pieces it composes: blocking.Candidates for the
// candidate set, Score for every candidate, a full sort for the top-k.
func TestResolveMatchesBatchPipeline(t *testing.T) {
	w, m, st, ids := resolveFixture(t)
	cfg := st.Config()
	const k = 5

	right := w.inner.Right
	schema := right.Schema
	for li := 0; li < len(w.inner.Left.Records) && li < 25; li++ {
		probe := w.inner.Left.Records[li].Values
		got, err := m.Resolve(st, probe, k)
		if err != nil {
			t.Fatal(err)
		}

		// Oracle: batch blocking + per-pair Score + sort by (Prob desc,
		// ID asc), truncated to k.
		left := &dataset.Table{Schema: schema, Records: []dataset.Record{{ID: "probe", Values: probe}}}
		pairs := blocking.Candidates(left, right, blocking.Config{
			Attrs: cfg.Attrs, MinSharedTokens: cfg.MinSharedTokens, MaxBlockSize: cfg.MaxBlockSize,
		})
		want := make([]MatchResult, 0, len(pairs))
		for _, p := range pairs {
			sc, err := m.Score(Pair{Left: probe, Right: right.Records[p.Right].Values})
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, MatchResult{ID: ids[p.Right], Values: right.Records[p.Right].Values, Score: sc})
		}
		sort.SliceStable(want, func(a, b int) bool {
			if want[a].Score.Prob != want[b].Score.Prob {
				return want[a].Score.Prob > want[b].Score.Prob
			}
			return want[a].ID < want[b].ID
		})
		if len(want) > k {
			want = want[:k]
		}

		if len(got) != len(want) {
			t.Fatalf("probe %d: got %d results, want %d", li, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID || got[i].Score != want[i].Score || !slices.Equal(got[i].Values, want[i].Values) {
				t.Fatalf("probe %d result %d: got %+v, want %+v", li, i, got[i], want[i])
			}
		}
	}
}

// TestResolveBatchMatchesResolve pins ResolveBatch to per-probe Resolve.
func TestResolveBatchMatchesResolve(t *testing.T) {
	w, m, st, _ := resolveFixture(t)
	probes := make([][]string, 0, 20)
	for li := 0; li < len(w.inner.Left.Records) && li < 20; li++ {
		probes = append(probes, w.inner.Left.Records[li].Values)
	}
	batch, err := m.ResolveBatch(st, probes, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, probe := range probes {
		single, err := m.Resolve(st, probe, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch[i], single) {
			t.Fatalf("probe %d: batch %+v, single %+v", i, batch[i], single)
		}
	}
}

// TestResolveAfterDeletes checks that deleted records drop out of resolve
// results while everything else keeps its verdict.
func TestResolveAfterDeletes(t *testing.T) {
	w, m, st, ids := resolveFixture(t)
	probe := w.inner.Left.Records[0].Values
	before, err := m.Resolve(st, probe, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 {
		t.Skip("probe 0 has no candidates in this fixture")
	}
	if !st.Delete(before[0].ID) {
		t.Fatal("deleting the top match failed")
	}
	after, err := m.Resolve(st, probe, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range after {
		if r.ID == before[0].ID {
			t.Fatalf("deleted record %d still resolves", before[0].ID)
		}
	}
	_ = ids
}

// TestResolveValidation covers the error surface: nil store, bad k, probe
// arity (wrapping ErrPairArity), and a store bound to a different arity.
func TestResolveValidation(t *testing.T) {
	_, m, st, _ := resolveFixture(t)
	probe := make([]string, len(m.Schema()))
	if _, err := m.Resolve(nil, probe, 3); err == nil {
		t.Error("nil store accepted")
	}
	if _, err := m.Resolve(st, probe, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := m.Resolve(st, probe[:1], 3); !errors.Is(err, ErrPairArity) {
		t.Errorf("short probe err = %v, want ErrPairArity", err)
	}
	other, err := match.New(len(m.Schema())+1, nil, match.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Resolve(other, probe, 3); err == nil {
		t.Error("arity-mismatched store accepted")
	}
	if _, err := m.ResolveBatch(st, [][]string{probe, probe[:1]}, 3); !errors.Is(err, ErrPairArity) {
		t.Errorf("batch with short probe err = %v, want ErrPairArity", err)
	}
}

// TestResolveRefusesStoreOfOtherSchema pins the residue binding. The AG
// and DS schemas both have 4 attributes, of different types, so a store
// one model built passes the other's arity check while its records keep
// the forms of the other's metrics: flat and partitioned resolves refuse
// it, as they refuse a store that keeps no forms. A model of the same
// schema (the DS model through Save/Load, as a hot swap loads it) ranks
// on the store exactly as the model that built it.
func TestResolveRefusesStoreOfOtherSchema(t *testing.T) {
	w, ds := trainedModel(t)
	agw, err := Generate("AG", 0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	ag, err := Train(t.Context(), agw, Options{RiskEpochs: 50, ClassifierEpochs: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(ag.Schema()) != len(ds.Schema()) {
		t.Fatalf("AG has %d attributes, DS %d: the arity check alone would refuse", len(ag.Schema()), len(ds.Schema()))
	}
	flat, err := ds.NewMatchStore(MatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	parted, err := ds.NewPartitionedMatchStore(2, MatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range w.inner.Right.Records {
		if _, err := flat.Add(r.Values); err != nil {
			t.Fatal(err)
		}
		if _, err := parted.Add(r.Values); err != nil {
			t.Fatal(err)
		}
	}
	probe := w.inner.Left.Records[0].Values
	if _, err := ag.Resolve(flat, probe, 3); !errors.Is(err, errStoreNeeds) {
		t.Errorf("AG resolve on a DS store: err = %v, want errStoreNeeds", err)
	}
	if _, err := ag.ResolveBatch(flat, [][]string{probe}, 3); !errors.Is(err, errStoreNeeds) {
		t.Errorf("AG batch resolve on a DS store: err = %v, want errStoreNeeds", err)
	}
	if _, err := ag.ResolvePartitioned(parted, probe, 3); !errors.Is(err, errStoreNeeds) {
		t.Errorf("AG partitioned resolve on a DS store: err = %v, want errStoreNeeds", err)
	}
	bare, err := match.New(len(ds.Schema()), nil, match.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Resolve(bare, probe, 3); !errors.Is(err, errStoreNeeds) {
		t.Errorf("resolve on a store keeping no forms: err = %v, want errStoreNeeds", err)
	}

	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ds.Resolve(flat, probe, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("probe resolved to nothing")
	}
	if got, err := loaded.Resolve(flat, probe, 3); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("loaded model on the same store: %v, %+v; want %+v", err, got, want)
	}
	if got, err := loaded.ResolvePartitioned(parted, probe, 3); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("loaded model on the same partitioned store: %v, %+v; want %+v", err, got, want)
	}
}

// TestResidueMemoryPerRecord pins what the kept forms cost: a store
// keeping the residues of 1,000 AB records (scale 0.1) holds at most 1 KiB
// more live heap per record than the same store keeping none. A
// []metrics.Prepared per record took about 2.7 KiB.
func TestResidueMemoryPerRecord(t *testing.T) {
	const n = 1000
	w, err := Generate("AB", 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	recs := slices.Concat(w.inner.Left.Records, w.inner.Right.Records)
	if len(recs) < n {
		t.Fatalf("AB scale 0.1 has %d records, want %d", len(recs), n)
	}
	recs = recs[:n]
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	heldBy := func(needs []metrics.Need) float64 {
		before := liveHeap()
		st, err := match.New(len(recs[0].Values), needs, match.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if _, err := st.Add(r.Values); err != nil {
				t.Fatal(err)
			}
		}
		after := liveHeap()
		runtime.KeepAlive(st)
		return float64(after) - float64(before)
	}
	needs := w.cat.AttrNeeds()
	perRecord := (heldBy(needs) - heldBy(nil)) / n
	var rs metrics.ResidueScratch
	encoded := 0
	for _, r := range recs {
		encoded += metrics.KeepResidue(r.Values, needs, &rs).Size()
	}
	t.Logf("residues: %.0f B of heap per record, %.1f B encoded", perRecord, float64(encoded)/n)
	if perRecord > 1024 {
		t.Fatalf("kept residues take %.0f B per AB record, want at most 1024", perRecord)
	}
}

// TestResolveConcurrent runs Resolve from many goroutines while the store
// mutates underneath — the pooled-scratch contract under -race (make race
// wires it in).
func TestResolveConcurrent(t *testing.T) {
	w, m, st, ids := resolveFixture(t)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				probe := w.inner.Left.Records[rng.Intn(len(w.inner.Left.Records))].Values
				res, err := m.Resolve(st, probe, 3)
				if err != nil {
					t.Error(err)
					return
				}
				for j := 1; j < len(res); j++ {
					prev, cur := res[j-1], res[j]
					if cur.Score.Prob > prev.Score.Prob {
						t.Errorf("results unsorted: %+v before %+v", prev, cur)
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 150; i++ {
			switch rng.Intn(2) {
			case 0:
				st.Delete(ids[rng.Intn(len(ids))])
			case 1:
				r := w.inner.Right.Records[rng.Intn(len(w.inner.Right.Records))]
				if _, err := st.Add(r.Values); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
}
