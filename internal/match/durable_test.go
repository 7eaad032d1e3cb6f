package match

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wal"
)

// quietOpts disables background snapshots and fsync so unit tests are
// deterministic and fast; the crash tests override per scenario.
func quietOpts() DurableOptions {
	return DurableOptions{Sync: wal.SyncNever, SnapshotEvery: -1}
}

func mustOpenDurable(t *testing.T, dir string, arity int, cfg Config, opts DurableOptions) *DurableStore {
	t.Helper()
	d, err := OpenDurable(dir, arity, nil, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// copyDir clones a data directory — the "crash" primitive: the original
// store keeps its files open and running, the copy is what a restarted
// process would find on disk.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// assertStoreEquals checks the recovered store against a surviving-records
// oracle, both record-for-record and through the blocking index: probes
// must agree with a from-scratch batch rebuild over the oracle's records.
func assertStoreEquals(t *testing.T, st *Store, oracle map[uint64][]string, probes [][]string) {
	t.Helper()
	if st.Len() != len(oracle) {
		t.Fatalf("recovered store has %d live records, oracle has %d", st.Len(), len(oracle))
	}
	var maxID uint64
	for id, want := range oracle {
		got, ok := st.Get(id)
		if !ok {
			t.Fatalf("record %d missing after recovery", id)
		}
		if len(got) != len(want) {
			t.Fatalf("record %d has %d values, want %d", id, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("record %d value %d = %q, want %q", id, i, got[i], want[i])
			}
		}
		if id > maxID {
			maxID = id
		}
	}
	if len(probes) == 0 {
		return
	}
	ids := make([]uint64, 0, len(oracle))
	for id := uint64(0); id <= maxID; id++ {
		if _, ok := oracle[id]; ok {
			ids = append(ids, id)
		}
	}
	values := make([][]string, len(ids))
	for i, id := range ids {
		values[i] = oracle[id]
	}
	var ps ProbeScratch
	for _, probe := range probes {
		cands, err := st.AppendCandidates(nil, probe, &ps, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := candidateIDs(cands)
		want := batchOracle(probe, ids, values, st.Config(), st.Arity())
		if len(got) != len(want) {
			t.Fatalf("recovered probe %q: got %v, want %v", probe, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("recovered probe %q: got %v, want %v", probe, got, want)
			}
		}
	}
}

func TestDurableLifecycle(t *testing.T) {
	const arity = 3
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(11))
	d := mustOpenDurable(t, dir, arity, Config{}, quietOpts())

	oracle := map[uint64][]string{}
	var ids []uint64
	for i := 0; i < 60; i++ {
		vals := randValues(rng, arity)
		id, err := d.Add(vals)
		if err != nil {
			t.Fatal(err)
		}
		oracle[id] = vals
		ids = append(ids, id)
	}
	for i := 0; i < 20; i++ {
		id := ids[rng.Intn(len(ids))]
		_, live := oracle[id]
		ok, err := d.Delete(id)
		if err != nil {
			t.Fatal(err)
		}
		if ok != live {
			t.Fatalf("Delete(%d) = %v, oracle says live=%v", id, ok, live)
		}
		delete(oracle, id)
	}
	if ok, err := d.Delete(1 << 40); ok || err != nil {
		t.Fatalf("Delete(unknown) = %v, %v", ok, err)
	}
	maxBefore := d.Store.nextID.Load()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Add(randValues(rng, arity)); !errors.Is(err, ErrDurableClosed) {
		t.Fatalf("Add after Close = %v, want ErrDurableClosed", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// A clean shutdown wrote a final snapshot: the reopen replays zero log
	// frames, rebuilds the identical store, and never reuses an ID.
	d2 := mustOpenDurable(t, dir, arity, Config{}, quietOpts())
	defer d2.Close()
	rs := d2.ReplayStats()
	if rs.TailFrames != 0 {
		t.Errorf("clean restart replayed %d tail frames, want 0 (stats %+v)", rs.TailFrames, rs)
	}
	if rs.SnapshotRecords != len(oracle) {
		t.Errorf("snapshot restored %d records, want %d", rs.SnapshotRecords, len(oracle))
	}
	probes := make([][]string, 6)
	for i := range probes {
		probes[i] = randValues(rng, arity)
	}
	assertStoreEquals(t, d2.Store, oracle, probes)
	id, err := d2.Add(randValues(rng, arity))
	if err != nil {
		t.Fatal(err)
	}
	if id < maxBefore {
		t.Errorf("post-restart id %d reuses pre-restart space (next was %d)", id, maxBefore)
	}
}

func TestDurableCrashReplayFromTail(t *testing.T) {
	const arity = 3
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(12))
	d := mustOpenDurable(t, dir, arity, Config{}, quietOpts())
	defer d.Close()

	oracle := map[uint64][]string{}
	var ids []uint64
	adds, dels := 0, 0
	for i := 0; i < 100; i++ {
		if len(ids) > 0 && rng.Intn(4) == 0 {
			id := ids[rng.Intn(len(ids))]
			if _, live := oracle[id]; live {
				if _, err := d.Delete(id); err != nil {
					t.Fatal(err)
				}
				delete(oracle, id)
				dels++
				continue
			}
		}
		vals := randValues(rng, arity)
		id, err := d.Add(vals)
		if err != nil {
			t.Fatal(err)
		}
		oracle[id] = vals
		ids = append(ids, id)
		adds++
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}

	// No Close: the copy is what a crash leaves behind — pure log tail.
	crashed := copyDir(t, dir)
	d2 := mustOpenDurable(t, crashed, arity, Config{}, quietOpts())
	defer d2.Close()
	rs := d2.ReplayStats()
	if rs.TailAdds != adds || rs.TailDeletes != dels {
		t.Errorf("replayed %d adds / %d deletes, want %d / %d", rs.TailAdds, rs.TailDeletes, adds, dels)
	}
	probes := make([][]string, 6)
	for i := range probes {
		probes[i] = randValues(rng, arity)
	}
	assertStoreEquals(t, d2.Store, oracle, probes)
}

func TestSnapshotTruncatesLogAndSurvivesCrash(t *testing.T) {
	const arity = 2
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(13))
	d := mustOpenDurable(t, dir, arity, Config{}, quietOpts())
	defer d.Close()

	oracle := map[uint64][]string{}
	for i := 0; i < 40; i++ {
		vals := randValues(rng, arity)
		id, err := d.Add(vals)
		if err != nil {
			t.Fatal(err)
		}
		oracle[id] = vals
	}
	info, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != len(oracle) {
		t.Errorf("snapshot captured %d records, want %d", info.Records, len(oracle))
	}
	// The pre-snapshot segment is gone; exactly one (fresh) segment and one
	// snapshot remain.
	segs, snaps := listDataDir(t, dir)
	if len(segs) != 1 || len(snaps) != 1 {
		t.Fatalf("after snapshot: segments %v snapshots %v, want one of each", segs, snaps)
	}

	// More ops land in the new segment; a crash replays snapshot + tail.
	var postIDs []uint64
	for i := 0; i < 15; i++ {
		vals := randValues(rng, arity)
		id, err := d.Add(vals)
		if err != nil {
			t.Fatal(err)
		}
		oracle[id] = vals
		postIDs = append(postIDs, id)
	}
	if _, err := d.Delete(postIDs[0]); err != nil {
		t.Fatal(err)
	}
	delete(oracle, postIDs[0])
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	crashed := copyDir(t, dir)
	d2 := mustOpenDurable(t, crashed, arity, Config{}, quietOpts())
	defer d2.Close()
	rs := d2.ReplayStats()
	if rs.SnapshotRecords != info.Records || rs.TailFrames != 16 {
		t.Errorf("replay stats %+v, want %d snapshot records and 16 tail frames", rs, info.Records)
	}
	assertStoreEquals(t, d2.Store, oracle, [][]string{randValues(rng, arity)})
}

func TestBackgroundSnapshotTriggers(t *testing.T) {
	dir := t.TempDir()
	opts := quietOpts()
	opts.SnapshotEvery = 25
	d := mustOpenDurable(t, dir, 2, Config{}, opts)
	defer d.Close()
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 60; i++ {
		if _, err := d.Add(randValues(rng, 2)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.DurableStats().Snapshots == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no background snapshot within deadline; stats %+v", d.DurableStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDurableStatsCounters(t *testing.T) {
	dir := t.TempDir()
	d := mustOpenDurable(t, dir, 2, Config{}, quietOpts())
	defer d.Close()
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 10; i++ {
		if _, err := d.Add(randValues(rng, 2)); err != nil {
			t.Fatal(err)
		}
	}
	st := d.DurableStats()
	if st.WALAppends != 10 || st.TailOps != 10 || st.WALSeq != 1 {
		t.Errorf("stats before snapshot: %+v", st)
	}
	if _, err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	st = d.DurableStats()
	if st.WALAppends != 10 || st.TailOps != 0 || st.WALSeq != 2 || st.Snapshots != 1 || st.SnapshotRecords != 10 {
		t.Errorf("stats after snapshot: %+v", st)
	}
}

// TestFailingWALRefusesMutations swaps the live segment writer for one on
// a failing device: Add/Delete must surface the error and leave the
// in-memory store untouched — no acknowledged-but-unlogged state.
func TestFailingWALRefusesMutations(t *testing.T) {
	dir := t.TempDir()
	d := mustOpenDurable(t, dir, 2, Config{}, quietOpts())
	defer d.Close()
	rng := rand.New(rand.NewSource(16))
	id, err := d.Add(randValues(rng, 2))
	if err != nil {
		t.Fatal(err)
	}

	d.mu.Lock()
	good := d.log
	d.log = wal.NewWriter(brokenFile{}, 0, wal.Options{Policy: wal.SyncNever})
	d.mu.Unlock()

	before := d.Len()
	if _, err := d.Add(randValues(rng, 2)); err == nil {
		t.Fatal("Add acknowledged on a failing WAL")
	}
	if d.Len() != before {
		t.Fatal("failed Add mutated the in-memory store")
	}
	if ok, err := d.Delete(id); ok || err == nil {
		t.Fatalf("Delete on a failing WAL = (%v, %v), want (false, error)", ok, err)
	}
	if _, found := d.Get(id); !found {
		t.Fatal("failed Delete removed the record from memory")
	}

	d.mu.Lock()
	d.log = good
	d.mu.Unlock()
	if _, err := d.Add(randValues(rng, 2)); err != nil {
		t.Fatalf("Add after device recovery: %v", err)
	}
}

type brokenFile struct{}

func (brokenFile) Write([]byte) (int, error) { return 0, errors.New("injected: device failure") }
func (brokenFile) Sync() error               { return errors.New("injected: device failure") }

// TestConcurrentDurableAddDeleteSnapshotProbe hammers one durable store
// from adders, deleters, probers and snapshotters; run under -race via
// make race. Afterwards a crash-copy replay must agree with the final
// in-memory state exactly.
func TestConcurrentDurableAddDeleteSnapshotProbe(t *testing.T) {
	const arity = 3
	dir := t.TempDir()
	opts := quietOpts()
	opts.SnapshotEvery = 64 // background snapshots fire during the storm
	d := mustOpenDurable(t, dir, arity, Config{CompactMinDead: 2, CompactFrac: 0.3}, opts)

	var wg sync.WaitGroup
	var idMu sync.Mutex
	var ids []uint64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 150; i++ {
				id, err := d.Add(randValues(rng, arity))
				if err != nil {
					t.Error(err)
					return
				}
				idMu.Lock()
				ids = append(ids, id)
				idMu.Unlock()
			}
		}(int64(g))
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for i := 0; i < 150; i++ {
				idMu.Lock()
				var id uint64
				if len(ids) > 0 {
					id = ids[rng.Intn(len(ids))]
				}
				idMu.Unlock()
				if _, err := d.Delete(id); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(200 + seed))
			var ps ProbeScratch
			for i := 0; i < 100; i++ {
				if _, err := d.AppendCandidates(nil, randValues(rng, arity), &ps, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := d.Snapshot(); err != nil && !errors.Is(err, ErrDurableClosed) {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	oracle := map[uint64][]string{}
	for id := uint64(0); id < d.Store.nextID.Load(); id++ {
		if vals, ok := d.Get(id); ok {
			oracle[id] = vals
		}
	}
	// A background snapshot triggered by the storm may still be renaming
	// or pruning files; holding snapMu makes the copy see a settled
	// directory.
	d.snapMu.Lock()
	crashed := copyDir(t, dir)
	d.snapMu.Unlock()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := mustOpenDurable(t, crashed, arity, Config{}, quietOpts())
	defer d2.Close()
	rng := rand.New(rand.NewSource(7))
	assertStoreEquals(t, d2.Store, oracle, [][]string{randValues(rng, arity), randValues(rng, arity)})
}

// listDataDir returns the segment and snapshot file names present.
func listDataDir(t *testing.T, dir string) (segs, snaps []string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		switch {
		case strings.HasPrefix(e.Name(), "wal-"):
			segs = append(segs, e.Name())
		case strings.HasPrefix(e.Name(), "snap-") && strings.HasSuffix(e.Name(), ".db"):
			snaps = append(snaps, e.Name())
		}
	}
	return segs, snaps
}

// TestOpenDurableReportsProgress exercises the replay progress callback
// (what /readyz surfaces while a big store warms).
func TestOpenDurableReportsProgress(t *testing.T) {
	dir := t.TempDir()
	d := mustOpenDurable(t, dir, 2, Config{}, quietOpts())
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 3000; i++ {
		if _, err := d.Add(randValues(rng, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	crashed := copyDir(t, dir)
	d.Close()

	var mu sync.Mutex
	calls := map[string]int{}
	opts := quietOpts()
	opts.Progress = func(phase string, done, total int) {
		mu.Lock()
		calls[phase]++
		mu.Unlock()
	}
	d2 := mustOpenDurable(t, crashed, 2, Config{}, opts)
	defer d2.Close()
	if calls["log"] == 0 {
		t.Errorf("no log-phase progress callbacks across 3000 replayed ops (calls %v)", calls)
	}
}

// TestSyncDirReportsErrors pins that a directory sync reports its failure
// instead of swallowing it: a snapshot prunes the history it covers only
// after the sync of its rename succeeded.
func TestSyncDirReportsErrors(t *testing.T) {
	dir := t.TempDir()
	if err := syncDir(dir); err != nil {
		t.Fatalf("syncDir of an existing directory: %v", err)
	}
	if err := syncDir(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("syncDir of a missing directory returned nil")
	}
}
