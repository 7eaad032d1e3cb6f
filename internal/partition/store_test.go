package partition

import (
	"cmp"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/match"
	"repro/internal/wal"
)

func fakeRank(probe, vals []string) float64 {
	h := fnv.New64a()
	for _, v := range probe {
		h.Write([]byte(v))
		h.Write([]byte{0})
	}
	for _, v := range vals {
		h.Write([]byte(v))
		h.Write([]byte{0})
	}
	return float64(h.Sum64()%5) / 5 // five rank levels => constant ties
}

// fakeLeg is a deterministic stand-in for the facade's resolve leg: the
// rank depends only on the (probe, candidate) values, is identical no
// matter which store holds the candidate, and is heavily quantized so ties
// — the case the ID tie-break must settle — are common.
func fakeLeg(probe []string, k int) func(st *match.Store, skip []string) []match.Ranked {
	return func(st *match.Store, skip []string) []match.Ranked {
		var ps match.ProbeScratch
		cands, err := st.AppendCandidates(nil, probe, &ps, skip)
		if err != nil {
			panic(err) // Resolve checked the probe's arity before any leg ran
		}
		var top match.TopK
		top.Reset(k)
		for _, c := range cands {
			top.Offer(match.Scored{ID: c.ID, Rank: fakeRank(probe, c.Values)})
		}
		var out []match.Ranked
		for _, e := range top.AppendSorted(nil) {
			i, _ := slices.BinarySearchFunc(cands, e.ID, func(c match.Candidate, id uint64) int { return cmp.Compare(c.ID, id) })
			out = append(out, match.Ranked{Candidate: cands[i], Prob: e.Rank})
		}
		return out
	}
}

// scoredOf projects ranked candidates onto their comparable (ID, rank)
// keys.
func scoredOf(ranked []match.Ranked) []match.Scored {
	out := make([]match.Scored, len(ranked))
	for i, r := range ranked {
		out[i] = match.Scored{ID: r.ID, Rank: r.Prob}
	}
	return out
}

// fakeResolve is a scatter-gather resolve with the fake leg.
func fakeResolve(ps *Store, probe []string, k int) ([]match.Scored, error) {
	ranked, err := Resolve(ps, probe, k, nil, fakeLeg(probe, k))
	return scoredOf(ranked), err
}

// vocab is small on purpose: records collide on tokens constantly, so
// postings grow past aggressive MaxBlockSize bounds and the summed-count
// pruning path is genuinely exercised.
var vocab = []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}

func randValues(rng *rand.Rand, arity int) []string {
	vals := make([]string, arity)
	for i := range vals {
		n := 1 + rng.Intn(3)
		toks := make([]string, n)
		for j := range toks {
			toks[j] = vocab[rng.Intn(len(vocab))]
		}
		vals[i] = strings.Join(toks, " ")
	}
	return vals
}

// flatOracle resolves against a single flat store with the original
// (pruning-enabled) config — exactly the single-store semantics the
// partitioned path must reproduce bit for bit.
func flatOracle(st *match.Store, probe []string, k int) []match.Scored {
	return scoredOf(fakeLeg(probe, k)(st, nil))
}

// oracleCases are the partition counts and pruning configs the
// partitioned-vs-flat oracles run under, including aggressive MaxBlockSize
// bounds where the summed live counts decide most probes.
var oracleCases = []struct {
	parts int
	cfg   match.Config
}{
	{parts: 1, cfg: match.Config{}},
	{parts: 2, cfg: match.Config{}},
	{parts: 3, cfg: match.Config{MaxBlockSize: 3}},
	{parts: 5, cfg: match.Config{MaxBlockSize: 2, MinSharedTokens: 2}},
	{parts: 8, cfg: match.Config{MaxBlockSize: -1}},
}

// TestFuzzPartitionedMatchesFlat is the equivalence oracle: a partitioned
// store and a flat store fed the identical interleaved add/delete sequence
// must answer every resolve with the identical ranked slice — same IDs,
// same rank bits, same order — across oracleCases.
func TestFuzzPartitionedMatchesFlat(t *testing.T) {
	const arity = 2
	for _, tc := range oracleCases {
		name := fmt.Sprintf("parts=%d/maxblock=%d/minshared=%d",
			tc.parts, tc.cfg.MaxBlockSize, tc.cfg.MinSharedTokens)
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.parts)*31 + int64(tc.cfg.MaxBlockSize)))
			ps, err := New(arity, nil, Options{Partitions: tc.parts, Match: tc.cfg})
			if err != nil {
				t.Fatal(err)
			}
			flat, err := match.New(arity, nil, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var live []uint64
			resolves := 0
			for op := 0; op < 1500; op++ {
				switch r := rng.Float64(); {
				case r < 0.55:
					vals := randValues(rng, arity)
					gotID, err := ps.Add(vals)
					if err != nil {
						t.Fatalf("op %d: partitioned add: %v", op, err)
					}
					wantID, err := flat.Add(vals)
					if err != nil {
						t.Fatalf("op %d: flat add: %v", op, err)
					}
					if gotID != wantID {
						t.Fatalf("op %d: partitioned assigned ID %d, flat assigned %d", op, gotID, wantID)
					}
					live = append(live, gotID)
				case r < 0.70 && len(live) > 0:
					i := rng.Intn(len(live))
					id := live[i]
					live = slices.Delete(live, i, i+1)
					got, err := ps.Delete(id)
					if err != nil {
						t.Fatalf("op %d: partitioned delete(%d): %v", op, id, err)
					}
					if want := flat.Delete(id); got != want {
						t.Fatalf("op %d: delete(%d): partitioned=%v flat=%v", op, id, got, want)
					}
				default:
					probe := randValues(rng, arity)
					k := 1 + rng.Intn(5)
					got, err := fakeResolve(ps, probe, k)
					if err != nil {
						t.Fatalf("op %d: partitioned resolve: %v", op, err)
					}
					want := flatOracle(flat, probe, k)
					if !slices.Equal(got, want) {
						t.Fatalf("op %d: resolve(%v, k=%d) diverged (%d live records)\npartitioned: %v\nflat:        %v",
							op, probe, k, len(live), got, want)
					}
					resolves++
				}
			}
			if resolves == 0 {
				t.Fatal("fuzz schedule never resolved")
			}
			if ps.Len() != flat.Len() {
				t.Fatalf("live counts diverged: partitioned %d, flat %d", ps.Len(), flat.Len())
			}
			// With the aggressive bounds the router must actually have
			// pruned — otherwise the skip path was never under test.
			if tc.cfg.MaxBlockSize > 0 && tc.cfg.MaxBlockSize <= 3 {
				if st := ps.Stats(); st.PrunedTokens == 0 {
					t.Fatal("aggressive MaxBlockSize never pruned a probe token; the summed-count path was not exercised")
				}
			}
		})
	}
}

// TestConcurrentAddDeleteResolveSnapshot hammers a durable partitioned
// store from adders, deleters, resolvers and a snapshotter at once (run
// under -race via make race). Every resolve must succeed — a mid-load
// snapshot may slow probes, never drop them.
func TestConcurrentAddDeleteResolveSnapshot(t *testing.T) {
	ps, err := OpenDurable(t.TempDir(), 2, nil, Options{
		Partitions: 4,
		Match:      match.Config{MaxBlockSize: 8},
		Durable:    match.DurableOptions{Sync: wal.SyncNever, SnapshotEvery: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()

	var (
		wg        sync.WaitGroup
		stop      atomic.Bool
		added     atomic.Int64
		resolved  atomic.Int64
		snapshots atomic.Int64
	)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				if _, err := ps.Add(randValues(rng, 2)); err != nil {
					t.Errorf("add: %v", err)
					return
				}
				added.Add(1)
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for !stop.Load() {
			if hi := ps.NextID(); hi > 0 {
				if _, err := ps.Delete(uint64(rng.Int63n(int64(hi)))); err != nil {
					t.Errorf("delete: %v", err)
					return
				}
			}
		}
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				if _, err := fakeResolve(ps, randValues(rng, 2), 5); err != nil {
					t.Errorf("resolve: %v", err)
					return
				}
				resolved.Add(1)
			}
		}(int64(100 + w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, err := ps.Snapshot(); err != nil {
				t.Errorf("snapshot: %v", err)
				return
			}
			snapshots.Add(1)
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(150 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if added.Load() == 0 || resolved.Load() == 0 || snapshots.Load() == 0 {
		t.Fatalf("schedule too thin: %d adds, %d resolves, %d snapshots",
			added.Load(), resolved.Load(), snapshots.Load())
	}
	t.Logf("%d adds, %d resolves, %d snapshots, zero dropped", added.Load(), resolved.Load(), snapshots.Load())
}

// TestDurableRestart proves a partitioned durable store survives a clean
// shutdown: the records, their postings and the global ID allocator all
// come back, so the restarted store resolves — and prunes — exactly like
// the one that closed.
func TestDurableRestart(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Partitions: 3,
		Match:      match.Config{MaxBlockSize: 3},
		Durable:    match.DurableOptions{Sync: wal.SyncNever},
	}
	ps, err := OpenDurable(dir, 2, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !ps.Durable() {
		t.Fatal("OpenDurable built a non-durable store")
	}
	rng := rand.New(rand.NewSource(7))
	flat, _ := match.New(2, nil, match.Config{MaxBlockSize: 3})
	for i := 0; i < 120; i++ {
		vals := randValues(rng, 2)
		if _, err := ps.Add(vals); err != nil {
			t.Fatal(err)
		}
		flat.Add(vals)
	}
	for id := uint64(0); id < 120; id += 3 {
		if _, err := ps.Delete(id); err != nil {
			t.Fatal(err)
		}
		flat.Delete(id)
	}
	probe := []string{"alpha beta", "gamma"}
	before, err := fakeResolve(ps, probe, 10)
	if err != nil {
		t.Fatal(err)
	}
	nextID := ps.NextID()
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	// A different partition count must be refused, not repartitioned.
	if _, err := OpenDurable(dir, 2, nil, Options{Partitions: 5, Match: opts.Match}); err == nil {
		t.Fatal("reopening 3 partitions as 5 was accepted")
	}

	ps2, err := OpenDurable(dir, 2, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ps2.Close()
	if got := ps2.NextID(); got != nextID {
		t.Errorf("restart NextID = %d, want %d", got, nextID)
	}
	if got, want := ps2.Len(), flat.Len(); got != want {
		t.Errorf("restart Len = %d, want %d", got, want)
	}
	after, err := fakeResolve(ps2, probe, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(after, before) {
		t.Errorf("restart changed the resolve answer\nbefore: %v\nafter:  %v", before, after)
	}
	if want := flatOracle(flat, probe, 10); !slices.Equal(after, want) {
		t.Errorf("restarted store diverged from the flat oracle\ngot:  %v\nwant: %v", after, want)
	}
	// Fresh adds must not collide with replayed IDs.
	id, err := ps2.Add([]string{"alpha", "beta"})
	if err != nil {
		t.Fatal(err)
	}
	if id != nextID {
		t.Errorf("post-restart add assigned %d, want %d", id, nextID)
	}
}

// TestDurableLayout pins the data-dir layout rule: a dir written by one
// flat match.DurableStore opens in place as one partition and serves the
// same records; part-NNN dirs open as the partitions they hold, a count
// mismatch refused; and a flat dir opened as several partitions — or a dir
// holding both layouts — is refused with an error naming the layout,
// instead of opening empty and orphaning the records.
func TestDurableLayout(t *testing.T) {
	opts := func(parts int) Options {
		return Options{Partitions: parts, Durable: match.DurableOptions{Sync: wal.SyncNever}}
	}
	rng := rand.New(rand.NewSource(3))
	flatDir := t.TempDir()
	d, err := match.OpenDurable(flatDir, 2, nil, match.Config{}, match.DurableOptions{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := d.Add(randValues(rng, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Delete(5); err != nil {
		t.Fatal(err)
	}
	probe := []string{"alpha beta", "gamma"}
	want := flatOracle(d.Store, probe, 10)
	live, nextID := d.Len(), d.NextID()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	ps, err := OpenDurable(flatDir, 2, nil, opts(1))
	if err != nil {
		t.Fatalf("flat dir as 1 partition: %v", err)
	}
	if ps.Len() != live || ps.NextID() != nextID {
		t.Errorf("flat dir as 1 partition: live %d, next ID %d; want %d, %d", ps.Len(), ps.NextID(), live, nextID)
	}
	if got, err := fakeResolve(ps, probe, 10); err != nil || !slices.Equal(got, want) {
		t.Errorf("flat dir as 1 partition resolves differently (err %v)\ngot:  %v\nwant: %v", err, got, want)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(flatDir, partDirName(0))); err == nil {
		t.Error("opening a flat dir in place created a part-000 subdirectory")
	}

	if _, err := OpenDurable(flatDir, 2, nil, opts(4)); err == nil || !strings.Contains(err.Error(), "flat single-store layout") {
		t.Errorf("flat dir as 4 partitions: err = %v, want a refusal naming the flat layout", err)
	}

	partDir := t.TempDir()
	ps, err = OpenDurable(partDir, 2, nil, opts(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Add([]string{"alpha", "beta"}); err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(partDir, 2, nil, opts(1)); err == nil || !strings.Contains(err.Error(), "holds 3 partitions") {
		t.Errorf("3 partitions as 1: err = %v, want a count-mismatch refusal", err)
	}
	ps, err = OpenDurable(partDir, 2, nil, opts(3))
	if err != nil {
		t.Fatalf("3 partitions reopened as 3: %v", err)
	}
	if ps.Len() != 1 || len(ps.DurableStats()) != 3 {
		t.Errorf("3 partitions reopened: live %d over %d partitions, want 1 over 3", ps.Len(), len(ps.DurableStats()))
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	if err := os.Mkdir(filepath.Join(flatDir, partDirName(0)), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(flatDir, 2, nil, opts(1)); err == nil || !strings.Contains(err.Error(), "holds both") {
		t.Errorf("dir with both layouts: err = %v, want a refusal", err)
	}
}

func TestJumpHash(t *testing.T) {
	// Every key lands in range, and the distribution over 10k keys is not
	// degenerate.
	counts := make([]int, 7)
	for id := uint64(0); id < 10000; id++ {
		b := jumpHash(id, len(counts))
		if b < 0 || b >= len(counts) {
			t.Fatalf("jumpHash(%d, %d) = %d out of range", id, len(counts), b)
		}
		counts[b]++
	}
	for b, n := range counts {
		if n < 1000 || n > 2000 {
			t.Errorf("bucket %d got %d of 10000 keys (want ~1428)", b, n)
		}
	}
	// Consistency: growing 7 -> 8 buckets only moves keys into the new
	// bucket, never between old ones.
	for id := uint64(0); id < 10000; id++ {
		b7, b8 := jumpHash(id, 7), jumpHash(id, 8)
		if b8 != b7 && b8 != 7 {
			t.Fatalf("key %d moved from bucket %d to old bucket %d when growing", id, b7, b8)
		}
	}
}

func TestStoreValidation(t *testing.T) {
	ps, err := New(2, nil, Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Add([]string{"one value only"}); !errors.Is(err, match.ErrArity) {
		t.Errorf("arity-mismatched add: err = %v, want ErrArity", err)
	}
	if _, err := fakeResolve(ps, []string{"too", "many", "values"}, 5); !errors.Is(err, match.ErrArity) {
		t.Errorf("arity-mismatched probe: err = %v, want ErrArity", err)
	}
	if _, err := fakeResolve(ps, []string{"a", "b"}, 0); err == nil {
		t.Error("k=0 resolve accepted")
	}
	if _, err := ps.Snapshot(); !errors.Is(err, ErrNotDurable) {
		t.Errorf("in-memory snapshot: err = %v, want ErrNotDurable", err)
	}
	if ps.Durable() || ps.DurableStats() != nil {
		t.Error("in-memory store reports durable")
	}
	if got, ok := ps.Get(42); ok {
		t.Errorf("Get on an empty store returned %v", got)
	}
	if ok, err := ps.Delete(42); ok || err != nil {
		t.Errorf("Delete of unknown ID = (%v, %v), want (false, nil)", ok, err)
	}
	if err := ps.Close(); err != nil {
		t.Errorf("in-memory Close: %v", err)
	}
	// A config every partition refuses leaves the data dir untouched, so
	// a later open may still choose its partition count.
	dir := t.TempDir()
	if _, err := OpenDurable(dir, 2, nil, Options{Partitions: 3, Match: match.Config{Attrs: []int{5}}}); err == nil {
		t.Error("a blocking attribute outside the schema was accepted")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("a refused config left %d entries in the data dir", len(entries))
	}
}

func TestStats(t *testing.T) {
	// 64 records over 4 partitions hold "alpha" about 16 times each, so
	// only the count summed over the partitions exceeds the bound.
	ps, err := New(1, nil, Options{Partitions: 4, Match: match.Config{MaxBlockSize: 32}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := ps.Add([]string{"alpha beta gamma"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fakeResolve(ps, []string{"alpha"}, 3); err != nil {
		t.Fatal(err)
	}
	st := ps.Stats()
	if st.Partitions != 4 {
		t.Errorf("Stats layout = %d partitions, want 4", st.Partitions)
	}
	total := 0
	for _, n := range st.Records {
		total += n
	}
	if total != 64 {
		t.Errorf("per-partition records sum to %d, want 64", total)
	}
	if st.Probes != 1 {
		t.Errorf("Probes = %d, want 1", st.Probes)
	}
	if st.PrunedTokens != 1 {
		t.Errorf("PrunedTokens = %d, want 1 (alpha, held by 64 records against a bound of 32)", st.PrunedTokens)
	}
	for i, n := range st.Records {
		if n > 32 {
			t.Errorf("partition %d holds %d records; the test needs every partition under the bound", i, n)
		}
	}
	if got := len(ps.PartitionStats()); got != 4 {
		t.Errorf("PartitionStats returned %d entries, want 4", got)
	}
}
