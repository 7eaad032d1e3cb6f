package match

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/wal"
)

// The crash suite: the recovery contract, pinned against oracles. A crash
// may cut the log anywhere inside the final frame — recovery must yield
// exactly the acknowledged prefix. Damage anywhere else must fail the open
// loudly instead of resurrecting a silently wrong store.

// frameEnds scans raw log bytes and returns the end offset of each
// complete frame.
func frameEnds(t *testing.T, raw []byte) []int64 {
	t.Helper()
	sc := wal.NewScanner(bytes.NewReader(raw))
	var ends []int64
	for {
		if _, err := sc.Next(); err != nil {
			if errors.Is(err, wal.ErrTornTail) || errors.Is(err, wal.ErrCorrupt) {
				t.Fatalf("reference log does not scan clean: %v", err)
			}
			return ends
		}
		ends = append(ends, sc.Offset())
	}
}

// dirWithSegment builds a fresh data dir holding the given bytes as the
// first log segment — the disk image a crash left behind.
func dirWithSegment(t *testing.T, raw []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestCrashRecoveryOracle is the property test from the issue: fuzz a run
// of interleaved add/delete operations, then cut the log at every byte
// boundary of the final frame (and at every earlier frame boundary), reopen
// the store from the cut image, and assert it equals the surviving-records
// oracle for exactly the operations whose frames survived whole.
func TestCrashRecoveryOracle(t *testing.T) {
	const arity, ops = 3, 40
	rng := rand.New(rand.NewSource(21))
	dir := t.TempDir()
	d, err := OpenDurable(dir, arity, nil, Config{}, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// stateAfter[k] is the oracle after the first k operations.
	stateAfter := make([]map[uint64][]string, 1, ops+1)
	stateAfter[0] = map[uint64][]string{}
	var ids []uint64
	for i := 0; i < ops; i++ {
		cur := stateAfter[len(stateAfter)-1]
		next := make(map[uint64][]string, len(cur)+1)
		for id, v := range cur {
			next[id] = v
		}
		if len(ids) > 0 && rng.Intn(3) == 0 {
			// Delete a live record (dead ones log nothing, so they would not
			// produce a frame and would desync k from the frame count).
			var id uint64
			for {
				id = ids[rng.Intn(len(ids))]
				if _, live := next[id]; live {
					break
				}
			}
			if ok, err := d.Delete(id); !ok || err != nil {
				t.Fatalf("op %d: Delete(%d) = %v, %v", i, id, ok, err)
			}
			delete(next, id)
		} else {
			vals := randValues(rng, arity)
			id, err := d.Add(vals)
			if err != nil {
				t.Fatal(err)
			}
			next[id] = vals
			ids = append(ids, id)
		}
		stateAfter = append(stateAfter, next)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(t, raw)
	if len(ends) != ops {
		t.Fatalf("log holds %d frames for %d operations", len(ends), ops)
	}

	reopenAt := func(cut int64) (*DurableStore, string) {
		img := dirWithSegment(t, raw[:cut])
		d2, err := OpenDurable(img, arity, nil, Config{}, quietOpts())
		if err != nil {
			t.Fatalf("cut at %d: open failed: %v", cut, err)
		}
		return d2, img
	}

	// Every frame boundary: a clean prefix, no torn tail, exact oracle.
	for k, end := range ends {
		d2, _ := reopenAt(end)
		if rs := d2.ReplayStats(); rs.TornTail || rs.TailFrames != k+1 {
			t.Fatalf("boundary cut after op %d: replay %+v", k+1, rs)
		}
		assertStoreEquals(t, d2.Store, stateAfter[k+1], nil)
		d2.Close()
	}

	// Every byte of the final frame: the torn tail is dropped, the store is
	// the oracle minus the final operation, and the tail is physically
	// truncated so the next crash replays the same prefix again.
	lastStart := ends[len(ends)-2]
	for cut := lastStart; cut < int64(len(raw)); cut++ {
		d2, img := reopenAt(cut)
		rs := d2.ReplayStats()
		wantTorn := cut != lastStart
		if rs.TornTail != wantTorn || rs.TailFrames != ops-1 {
			t.Fatalf("cut at %d: replay %+v, want torn=%v frames=%d", cut, rs, wantTorn, ops-1)
		}
		assertStoreEquals(t, d2.Store, stateAfter[ops-1], nil)
		if fi, err := os.Stat(filepath.Join(img, segName(1))); err != nil || fi.Size() != lastStart {
			t.Fatalf("cut at %d: segment is %d bytes after open, want tail truncated to %d", cut, fi.Size(), lastStart)
		}
		d2.Close()
	}

	// One representative torn image keeps living: accept new writes, crash
	// again, recover again — the probe-level oracle must still agree.
	d3, img := reopenAt(lastStart + 3)
	oracle := map[uint64][]string{}
	for id, v := range stateAfter[ops-1] {
		oracle[id] = v
	}
	for i := 0; i < 10; i++ {
		vals := randValues(rng, arity)
		id, err := d3.Add(vals)
		if err != nil {
			t.Fatal(err)
		}
		oracle[id] = vals
	}
	if err := d3.Sync(); err != nil {
		t.Fatal(err)
	}
	crashed := copyDir(t, img)
	d3.Close()
	d4, err := OpenDurable(crashed, arity, nil, Config{}, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer d4.Close()
	assertStoreEquals(t, d4.Store, oracle, [][]string{randValues(rng, arity), randValues(rng, arity)})
}

// TestCrashBetweenRotateAndSnapshotPublish reconstructs the window where a
// snapshot cut rotated to a new segment but died before the rename
// published the snapshot file: replay must walk both segments in order.
func TestCrashBetweenRotateAndSnapshotPublish(t *testing.T) {
	const arity = 2
	dir := t.TempDir()
	oracle := map[uint64][]string{}

	writeSeg := func(seq uint64, frames [][]byte) {
		w, err := wal.OpenFileWriter(filepath.Join(dir, segName(seq)), 0, wal.Options{Policy: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range frames {
			if err := w.Append(f); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}

	var seg1, seg2 [][]byte
	for id := uint64(0); id < 10; id++ {
		vals := []string{fmt.Sprintf("alpha beta%d", id), "gamma"}
		seg1 = append(seg1, appendAddOp(nil, id, vals))
		oracle[id] = vals
	}
	for id := uint64(0); id < 3; id++ {
		seg2 = append(seg2, appendDeleteOp(nil, id))
		delete(oracle, id)
	}
	for id := uint64(10); id < 15; id++ {
		vals := []string{"delta", fmt.Sprintf("eps%d zeta", id)}
		seg2 = append(seg2, appendAddOp(nil, id, vals))
		oracle[id] = vals
	}
	writeSeg(1, seg1)
	writeSeg(2, seg2)

	d, err := OpenDurable(dir, arity, nil, Config{}, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rs := d.ReplayStats()
	if rs.Segments != 2 || rs.TailFrames != len(seg1)+len(seg2) || rs.SnapshotSeq != 0 {
		t.Fatalf("replay stats %+v, want both segments and no snapshot", rs)
	}
	assertStoreEquals(t, d.Store, oracle, nil)
	// New writes continue in the newest segment's sequence space.
	if d.DurableStats().WALSeq != 2 {
		t.Fatalf("live segment seq %d, want 2", d.DurableStats().WALSeq)
	}
	if id, err := d.Add([]string{"eta", "theta"}); err != nil || id != 15 {
		t.Fatalf("Add after multi-segment replay = (%d, %v), want id 15", id, err)
	}
}

// TestTornNonFinalSegmentFailsOpen: rotation seals a segment before its
// successor exists, so a tear in a non-final segment is damage, not a
// crash artifact — the open must refuse.
func TestTornNonFinalSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	for seq := uint64(1); seq <= 2; seq++ {
		w, err := wal.OpenFileWriter(filepath.Join(dir, segName(seq)), 0, wal.Options{Policy: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		for id := uint64(0); id < 4; id++ {
			if err := w.Append(appendAddOp(nil, seq*100+id, []string{"a", "b"})); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, segName(1))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(dir, 2, nil, Config{}, quietOpts()); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("open with a torn non-final segment = %v, want ErrCorrupt", err)
	}
}

// TestCorruptMidLogFailsOpen: a bit flip under acknowledged frames must
// abort the open with wal.ErrCorrupt — no panic, no silent drop.
func TestCorruptMidLogFailsOpen(t *testing.T) {
	const arity = 2
	dir := t.TempDir()
	d, err := OpenDurable(dir, arity, nil, Config{}, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 8; i++ {
		if _, err := d.Add(randValues(rng, arity)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	img := bytes.Clone(raw)
	img[10] ^= 0x04 // inside the first frame, with seven frames after it
	if _, err := OpenDurable(dirWithSegment(t, img), arity, nil, Config{}, quietOpts()); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("open with mid-log corruption = %v, want ErrCorrupt", err)
	}
}

// TestStaleSnapshotTempCleanup: a crash mid-snapshot leaves a .tmp the
// rename never published; reopening removes it (with a warning) and the
// replayable history is untouched.
func TestStaleSnapshotTempCleanup(t *testing.T) {
	const arity = 2
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(23))
	d, err := OpenDurable(dir, arity, nil, Config{}, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[uint64][]string{}
	for i := 0; i < 20; i++ {
		vals := randValues(rng, arity)
		id, err := d.Add(vals)
		if err != nil {
			t.Fatal(err)
		}
		oracle[id] = vals
	}
	if _, err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	crashed := copyDir(t, dir)
	d.Close()

	// The crash died halfway through writing the NEXT snapshot.
	stale := filepath.Join(crashed, snapName(99)+".tmp")
	if err := os.WriteFile(stale, []byte("half-written garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	var warnings []string
	opts := quietOpts()
	opts.Logf = func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}
	d2, err := OpenDurable(crashed, arity, nil, Config{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived the open (stat err %v)", err)
	}
	found := false
	for _, w := range warnings {
		if strings.Contains(w, "stale snapshot temp") {
			found = true
		}
	}
	if !found {
		t.Errorf("no stale-temp warning logged; warnings: %q", warnings)
	}
	assertStoreEquals(t, d2.Store, oracle, nil)
}

// TestDamagedSnapshotFailsOpen: snapshots are published whole by an atomic
// rename, so any truncation or bit flip is real damage — the open must
// fail with a descriptive error naming the snapshot, never limp along with
// a partial record set.
func TestDamagedSnapshotFailsOpen(t *testing.T) {
	const arity = 2
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(24))
	d, err := OpenDurable(dir, arity, nil, Config{}, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := d.Add(randValues(rng, arity)); err != nil {
			t.Fatal(err)
		}
	}
	info, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	snapPath := filepath.Join(dir, snapName(info.Seq))
	pristine, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(t, pristine)

	restore := func(b []byte) {
		if err := os.WriteFile(snapPath, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	expectFail := func(label string) {
		t.Helper()
		_, err := OpenDurable(dir, arity, nil, Config{}, quietOpts())
		if err == nil {
			t.Fatalf("%s: open succeeded on a damaged snapshot", label)
		}
		if !strings.Contains(err.Error(), "snapshot") {
			t.Fatalf("%s: error does not name the snapshot: %v", label, err)
		}
	}

	// Truncated mid-frame: the scan sees a tear a published file cannot have.
	restore(pristine[:len(pristine)-4])
	expectFail("mid-frame truncation")

	// Truncated at a frame boundary: frames scan clean but the header's
	// record count is not met.
	restore(pristine[:ends[len(ends)-2]])
	expectFail("frame-boundary truncation")

	// Bit flip in a record frame.
	img := bytes.Clone(pristine)
	img[ends[0]+12] ^= 0x80
	restore(img)
	expectFail("bit flip")

	// Wrong arity: the snapshot is intact but belongs to another schema.
	restore(pristine)
	if _, err := OpenDurable(dir, arity+1, nil, Config{}, quietOpts()); err == nil || !strings.Contains(err.Error(), "arity") {
		t.Fatalf("open with mismatched arity = %v, want arity error", err)
	}

	// Control: undamaged, the open works.
	d2, err := OpenDurable(dir, arity, nil, Config{}, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	d2.Close()
}
