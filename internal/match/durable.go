package match

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/wal"
)

// The durability layer: a DurableStore is a Store whose every mutation is
// framed into an append-only operation log (internal/wal) BEFORE it is
// applied in memory, with periodic snapshots of the surviving record set
// bounding how much log a restart replays. The log is the truth and the
// in-memory index is a cache of it (the Datomic-style discipline): replay
// of snapshot + tail rebuilds the exact store, incremental blocking index
// included, and the crash-recovery property test pins "replay == the
// surviving-records oracle" the way the batch-blocking oracle pins probes.
//
// On-disk layout inside the data directory:
//
//	wal-%016d.log   operation-log segments, replayed in sequence order
//	snap-%016d.db   record-set snapshots; snap-N covers segments < N,
//	                so replay = newest snapshot + segments >= N
//	*.tmp           half-written snapshots (crash leftovers, removed at open)
//
// A snapshot is cut by rotating to a fresh segment (the consistency point,
// taken under the mutation lock) and then writing the collected record set
// to a temp file that is fsynced and atomically renamed; only after the
// rename do older segments and snapshots get deleted. A crash at any point
// therefore leaves a replayable history — at worst the old snapshot plus
// more tail. Log truncation thus rides the same maintenance machinery that
// compacts the in-memory index: obsolete history disappears only once the
// surviving state has been re-established elsewhere.

// Operation codes of the log's frame payloads.
const (
	opAdd    byte = 1 // [opAdd][uvarint id][uvarint n][n x (uvarint len, bytes)]
	opDelete byte = 2 // [opDelete][uvarint id]
)

// snapMagic opens a snapshot file's header frame; the trailing byte is the
// format version.
var snapMagic = []byte("matchsnap\x01")

// maxSnapshotValues bounds a decoded record's value count and a snapshot
// header's arity (a corrupt count must not drive a giant allocation).
const maxSnapshotValues = 1 << 16

// ErrDurableClosed marks mutations after Close.
var ErrDurableClosed = errors.New("match: durable store is closed")

// DurableOptions configures the durability layer. The zero value fsyncs
// every operation and snapshots every 10k ops.
type DurableOptions struct {
	// Sync is the WAL fsync policy (wal.SyncAlways by default: an
	// acknowledged Add/Delete is durable).
	Sync wal.SyncPolicy
	// SyncInterval is the wal.SyncInterval cadence (default 100ms).
	SyncInterval time.Duration
	// SnapshotEvery is how many logged operations trigger an automatic
	// background snapshot (default 10000; negative disables — snapshots
	// then happen only via Snapshot and Close).
	SnapshotEvery int
	// Logf, when set, receives operational warnings (torn tail dropped at
	// replay, stale temp cleanup, background snapshot failures).
	Logf func(format string, args ...any)
	// Progress, when set, is called during replay: phase is "snapshot" or
	// "log", total is -1 while unknown (log tails are not pre-counted).
	Progress func(phase string, done, total int)
	// OnStage, when set, receives durations of internally timed stages
	// that have no request to attach to: snapshot cut and publish
	// (obs.StageSnapshotCut / obs.StageSnapshotPublish), from both
	// explicit Snapshot calls and background cadence snapshots. Must be
	// safe for concurrent use.
	OnStage func(stage obs.Stage, d time.Duration)
}

func (o DurableOptions) withDefaults() DurableOptions {
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 10000
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

func (o DurableOptions) walOptions() wal.Options {
	return wal.Options{Policy: o.Sync, Interval: o.SyncInterval}
}

// ReplayStats describes what one OpenDurable had to do.
type ReplayStats struct {
	SnapshotSeq     uint64        // snapshot the replay started from (0 = none)
	SnapshotRecords int           // records restored from it
	Segments        int           // log segments replayed after it
	TailFrames      int           // operations replayed from those segments
	TailAdds        int           // ... of which adds
	TailDeletes     int           // ... of which deletes
	TornTail        bool          // a torn final frame was dropped
	Duration        time.Duration // wall time of the whole replay
}

// SnapshotInfo describes one written snapshot.
type SnapshotInfo struct {
	Seq      uint64        // sequence the snapshot covers up to (exclusive)
	Records  int           // live records captured
	Bytes    int64         // file size
	Duration time.Duration // collect + write + rename wall time
}

// DurableStats is a point-in-time view of the durability layer (the
// wal_*/snapshot_* expvars). WAL counters are process-lifetime totals
// across segment rotations.
type DurableStats struct {
	Dir             string
	WALSeq          uint64 // current segment sequence
	WALSegmentBytes int64  // bytes in the current segment
	WALAppends      int64
	WALBytes        int64
	WALSyncs        int64
	TailOps         int   // ops logged since the last snapshot cut
	Snapshots       int64 // snapshots written by this process
	SnapshotSeq     uint64
	SnapshotRecords int64
	SnapshotBytes   int64
	SnapshotMillis  int64
	Replay          ReplayStats
}

// DurableStore is a Store whose mutations survive restarts: Add and Delete
// append to the WAL first and apply in memory only once the log accepted
// the frame, so the in-memory state is always replayable. Mutations
// serialize on d.mu — they were already serial at the log file — which is
// held across the WAL append and the in-memory apply; the lock order is
// d.mu, then the Store's own lock. The Store's write lock covers only the
// apply, so reads (Get, AppendCandidates, Stats, ...), which are the
// embedded Store's and never take d.mu, do not wait on a WAL fsync.
type DurableStore struct {
	*Store
	dir  string
	opts DurableOptions

	mu      sync.Mutex
	log     *wal.Writer
	seq     uint64 // current segment sequence
	opBuf   []byte
	opsTail int // ops logged since the last snapshot cut
	closed  bool

	snapMu      sync.Mutex  // one snapshot at a time (async trigger, admin, Close)
	snapPending atomic.Bool // an async snapshot is queued or running

	// rotated* accumulate closed segments' writer counters so DurableStats
	// reports process-lifetime totals.
	rotatedAppends atomic.Int64
	rotatedBytes   atomic.Int64
	rotatedSyncs   atomic.Int64

	snapshots atomic.Int64
	snapSeq   atomic.Uint64
	snapRecs  atomic.Int64
	snapBytes atomic.Int64
	snapNanos atomic.Int64

	replay ReplayStats
}

func segName(seq uint64) string  { return fmt.Sprintf("wal-%016d.log", seq) }
func snapName(seq uint64) string { return fmt.Sprintf("snap-%016d.db", seq) }

// parseSeq extracts the sequence from one of the two file-name shapes.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	var seq uint64
	if _, err := fmt.Sscanf(mid, "%d", &seq); err != nil || len(mid) != 16 {
		return 0, false
	}
	return seq, true
}

// IsDurableFile reports whether name is one of the files OpenDurable keeps
// in its data dir: a log segment or a snapshot.
func IsDurableFile(name string) bool {
	_, seg := parseSeq(name, "wal-", ".log")
	_, snap := parseSeq(name, "snap-", ".db")
	return seg || snap
}

// OpenDurable opens (creating if needed) the durable store rooted at dir:
// stale snapshot temp files are removed, the newest snapshot is loaded,
// the log segments after it are replayed — a torn final frame is dropped
// with a warning, corruption anywhere else fails loudly — and the last
// segment is reopened for appending with any torn tail truncated away.
// The rebuilt store is byte-for-byte the one a process that never crashed
// would hold (the crash-recovery property test pins this). needs is New's:
// replay and snapshot load install records through the same path as live
// adds, so every replayed record keeps its residue.
func OpenDurable(dir string, arity int, needs []metrics.Need, cfg Config, opts DurableOptions) (*DurableStore, error) {
	start := time.Now()
	opts = opts.withDefaults()
	inner, err := New(arity, needs, cfg) // an invalid config creates no dir
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("match: creating data dir: %w", err)
	}
	d := &DurableStore{Store: inner, dir: dir, opts: opts}

	snaps, segs, err := d.scanDir()
	if err != nil {
		return nil, err
	}

	// Load the newest snapshot, strictly: it was published by an atomic
	// rename, so any damage means the file never was a complete snapshot
	// (or rotted since) — refuse to guess.
	var fromSeq uint64
	if len(snaps) > 0 {
		fromSeq = snaps[len(snaps)-1]
		n, err := d.loadSnapshot(filepath.Join(dir, snapName(fromSeq)))
		if err != nil {
			return nil, err
		}
		d.replay.SnapshotSeq = fromSeq
		d.replay.SnapshotRecords = n
	}

	// History before the snapshot is obsolete; leftovers mean a crash
	// interrupted a previous cleanup.
	for _, seq := range snaps[:max(len(snaps)-1, 0)] {
		d.removeObsolete(snapName(seq))
	}
	for _, seq := range segs {
		if seq < fromSeq {
			d.removeObsolete(segName(seq))
		}
	}
	segs = slices.DeleteFunc(segs, func(seq uint64) bool { return seq < fromSeq })

	// Replay the tail. Only the final segment may end in a torn frame:
	// rotation syncs and closes a segment before its successor exists, so
	// a tear anywhere earlier is damage, not a crash artifact.
	var lastSize int64
	for i, seq := range segs {
		res, err := wal.ScanFile(filepath.Join(dir, segName(seq)), d.applyLogged)
		if err != nil {
			return nil, fmt.Errorf("match: replaying %s: %w", segName(seq), err)
		}
		if res.Torn {
			if i != len(segs)-1 {
				return nil, fmt.Errorf("%w: segment %s has a torn frame but later segments exist (%s)",
					wal.ErrCorrupt, segName(seq), res.Reason)
			}
			d.replay.TornTail = true
			opts.Logf("match: dropping torn tail of %s: %s", segName(seq), res.Reason)
		}
		d.replay.Segments++
		d.replay.TailFrames += res.Frames
		lastSize = res.Size
	}

	// Reopen (or bootstrap) the live segment.
	d.seq = fromSeq
	if d.seq == 0 {
		d.seq = 1
	}
	if len(segs) > 0 {
		d.seq = segs[len(segs)-1]
	} else {
		lastSize = 0
	}
	w, err := openSegment(dir, d.seq, lastSize, opts.walOptions())
	if err != nil {
		return nil, err
	}
	d.log = w
	d.opsTail = d.replay.TailFrames
	d.replay.Duration = time.Since(start)
	return d, nil
}

// scanDir inventories the data directory: sorted snapshot and segment
// sequences, with half-written temp files removed.
func (d *DurableStore) scanDir() (snaps, segs []uint64, err error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			d.opts.Logf("match: removing stale snapshot temp file %s", name)
			if err := os.Remove(filepath.Join(d.dir, name)); err != nil {
				return nil, nil, err
			}
		default:
			if seq, ok := parseSeq(name, "snap-", ".db"); ok {
				snaps = append(snaps, seq)
			} else if seq, ok := parseSeq(name, "wal-", ".log"); ok {
				segs = append(segs, seq)
			}
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return snaps, segs, nil
}

func (d *DurableStore) removeObsolete(name string) {
	if err := os.Remove(filepath.Join(d.dir, name)); err != nil {
		d.opts.Logf("match: removing obsolete %s: %v", name, err)
	} else {
		d.opts.Logf("match: removed obsolete %s", name)
	}
}

// applyLogged replays one WAL frame into the in-memory store.
func (d *DurableStore) applyLogged(payload []byte) error {
	op, id, values, err := decodeOp(payload)
	if err != nil {
		return err
	}
	switch op {
	case opAdd:
		if err := d.Store.addAt(id, values); err != nil {
			return fmt.Errorf("replaying add of record %d: %w", id, err)
		}
		d.Store.advanceNextID(id + 1)
		d.replay.TailAdds++
	case opDelete:
		// A logged delete always targeted a live record; a miss here would
		// mean the log and store disagree.
		if !d.Store.Delete(id) {
			return fmt.Errorf("replaying delete of record %d: not present", id)
		}
		d.replay.TailDeletes++
	}
	if p := d.opts.Progress; p != nil && (d.replay.TailAdds+d.replay.TailDeletes)%1024 == 0 {
		p("log", d.replay.TailAdds+d.replay.TailDeletes, -1)
	}
	return nil
}

// loadSnapshot restores the record set from one snapshot file. Snapshots
// are published complete (temp + rename), so unlike the log any tear or
// miscount is a hard error.
func (d *DurableStore) loadSnapshot(path string) (int, error) {
	var (
		sawHeader bool
		want      int
		applied   int
	)
	res, err := wal.ScanFile(path, func(payload []byte) error {
		if !sawHeader {
			arity, nextID, count, err := decodeSnapHeader(payload)
			if err != nil {
				return err
			}
			if arity != d.Store.arity {
				return fmt.Errorf("snapshot is for arity %d, store schema has %d", arity, d.Store.arity)
			}
			d.Store.advanceNextID(nextID)
			want = count
			sawHeader = true
			return nil
		}
		op, id, values, err := decodeOp(payload)
		if err != nil {
			return err
		}
		if op != opAdd {
			return fmt.Errorf("snapshot frame holds op %d, want add", op)
		}
		if err := d.Store.addAt(id, values); err != nil {
			return err
		}
		applied++
		if p := d.opts.Progress; p != nil && applied%1024 == 0 {
			p("snapshot", applied, want)
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("match: snapshot %s: %w", path, err)
	}
	if res.Torn {
		return 0, fmt.Errorf("match: snapshot %s is truncated (%s); it was never published complete — the data dir is damaged", path, res.Reason)
	}
	if !sawHeader {
		return 0, fmt.Errorf("match: snapshot %s is empty or headerless", path)
	}
	if applied != want {
		return 0, fmt.Errorf("match: snapshot %s holds %d of its declared %d records — truncated at a frame boundary", path, applied, want)
	}
	return applied, nil
}

// Add logs the record under the next ID, then installs it. The ID is
// durable by the time the call returns (under wal.SyncAlways). A WAL
// failure refuses the add — the in-memory store never holds state the log
// does not.
//
//vetkit:wal-before-apply
func (d *DurableStore) Add(values []string) (uint64, error) {
	if len(values) != d.Store.arity {
		return 0, fmt.Errorf("match: record has %d values, store schema has %d: %w", len(values), d.Store.arity, ErrArity)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, ErrDurableClosed
	}
	id := d.Store.reserveID()
	if err := d.addLocked(id, values, nil); err != nil {
		return 0, err
	}
	return id, nil
}

// AddAt logs the record under a caller-chosen ID, then installs it: the
// partitioned durable apply path, where a PartitionedStore assigns globally
// unique IDs and each partition persists the records routed to it. The op
// frame carries the ID (the same opAdd encoding Add logs), so replay
// restores it exactly. The ID must not name a live record in this
// partition.
//
//vetkit:wal-before-apply
func (d *DurableStore) AddAt(id uint64, values []string) error {
	return d.AddAtTraced(id, values, nil)
}

// AddAtTraced is AddAt with request-scoped stage timing: the WAL write and
// fsync land on the trace inside AppendTrace, the in-memory install on
// StageStoreApply. A nil trace records nothing.
//
//vetkit:wal-before-apply
func (d *DurableStore) AddAtTraced(id uint64, values []string, tr *obs.Trace) error {
	if len(values) != d.Store.arity {
		return fmt.Errorf("match: record has %d values, store schema has %d: %w", len(values), d.Store.arity, ErrArity)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrDurableClosed
	}
	if _, live := d.Store.Get(id); live {
		return fmt.Errorf("match: AddAt(%d): a live record already holds that ID", id)
	}
	return d.addLocked(id, values, tr)
}

// addLocked is the body Add and AddAtTraced share: it logs the add of the
// record under id, then installs it, raises the ID allocator past it and
// claims a background snapshot when the tail is due. The caller holds d.mu
// and has checked the arity and that id is not live.
//
//vetkit:wal-before-apply
func (d *DurableStore) addLocked(id uint64, values []string, tr *obs.Trace) error {
	d.opBuf = appendAddOp(d.opBuf[:0], id, values)
	if err := d.log.AppendTrace(d.opBuf, tr); err != nil {
		return fmt.Errorf("match: logging add: %w", err)
	}
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	if err := d.Store.addAt(id, values); err != nil {
		return err // unreachable: the caller checked arity and liveness under d.mu before logging
	}
	if tr != nil {
		tr.Observe(obs.StageStoreApply, t0)
	}
	d.Store.advanceNextID(id + 1)
	d.opsTail++
	if d.shouldSnapshotLocked() {
		go d.backgroundSnapshot()
	}
	return nil
}

// Delete logs the tombstone, then applies it. Deleting an unknown or
// already-deleted ID is (false, nil) and logs nothing.
//
//vetkit:wal-before-apply
func (d *DurableStore) Delete(id uint64) (bool, error) {
	return d.DeleteTraced(id, nil)
}

// DeleteTraced is Delete with request-scoped stage timing (see
// AddAtTraced).
//
//vetkit:wal-before-apply
func (d *DurableStore) DeleteTraced(id uint64, tr *obs.Trace) (bool, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return false, ErrDurableClosed
	}
	if _, live := d.Store.Get(id); !live {
		d.mu.Unlock()
		return false, nil
	}
	d.opBuf = appendDeleteOp(d.opBuf[:0], id)
	if err := d.log.AppendTrace(d.opBuf, tr); err != nil {
		d.mu.Unlock()
		return false, fmt.Errorf("match: logging delete: %w", err)
	}
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	d.Store.Delete(id) // cannot miss: live above, mutations hold d.mu
	if tr != nil {
		tr.Observe(obs.StageStoreApply, t0)
	}
	d.opsTail++
	trigger := d.shouldSnapshotLocked()
	d.mu.Unlock()
	if trigger {
		go d.backgroundSnapshot()
	}
	return true, nil
}

// shouldSnapshotLocked (caller holds d.mu) claims the async-snapshot slot
// when the tail has outgrown the configured cadence.
func (d *DurableStore) shouldSnapshotLocked() bool {
	if d.opts.SnapshotEvery <= 0 || d.opsTail < d.opts.SnapshotEvery {
		return false
	}
	return d.snapPending.CompareAndSwap(false, true)
}

func (d *DurableStore) backgroundSnapshot() {
	defer d.snapPending.Store(false)
	if _, err := d.Snapshot(); err != nil && !errors.Is(err, ErrDurableClosed) {
		// The old segments stay; nothing is lost. The next trigger retries.
		d.opts.Logf("match: background snapshot failed: %v", err)
	}
}

// Snapshot writes the surviving record set to disk now and truncates the
// log history it covers. Safe to call concurrently with mutations and
// probes; concurrent Snapshot calls serialize.
func (d *DurableStore) Snapshot() (SnapshotInfo, error) {
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	return d.snapshotLocked()
}

// snapEntry is one live record captured at the snapshot cut. Values are
// the store's immutable slices — no deep copy.
type snapEntry struct {
	id   uint64
	vals []string
}

// snapshotLocked cuts the consistency point (rotate to a fresh segment
// under the mutation lock), then writes, publishes and prunes without
// blocking mutations. Caller holds d.snapMu.
func (d *DurableStore) snapshotLocked() (SnapshotInfo, error) {
	start := time.Now()

	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return SnapshotInfo{}, ErrDurableClosed
	}
	entries := d.collectLive()
	nextID := d.Store.nextID.Load()
	// Rotate: the old segment is synced and closed BEFORE its successor
	// exists, so replay can trust that only the last segment may be torn.
	apps, bytes, syncs := d.log.Stats()
	if err := d.log.Close(); err != nil {
		d.closed = true
		d.mu.Unlock()
		return SnapshotInfo{}, fmt.Errorf("match: sealing segment %d for snapshot: %w", d.seq, err)
	}
	d.rotatedAppends.Add(apps)
	d.rotatedBytes.Add(bytes)
	d.rotatedSyncs.Add(syncs)
	newSeq := d.seq + 1
	w, err := openSegment(d.dir, newSeq, 0, d.opts.walOptions())
	if err != nil {
		// The store cannot accept writes without a log whose directory
		// entry is durable; fail closed.
		d.closed = true
		d.mu.Unlock()
		return SnapshotInfo{}, err
	}
	d.log = w
	d.seq = newSeq
	d.opsTail = 0
	d.mu.Unlock()
	cutDone := time.Now()
	if d.opts.OnStage != nil {
		d.opts.OnStage(obs.StageSnapshotCut, cutDone.Sub(start))
	}

	size, err := d.writeSnapshotFile(newSeq, nextID, entries)
	if err != nil {
		return SnapshotInfo{}, err
	}

	// Only now is the history before newSeq redundant.
	if snaps, segs, err := d.scanDir(); err == nil {
		for _, seq := range snaps {
			if seq < newSeq {
				d.removeObsolete(snapName(seq))
			}
		}
		for _, seq := range segs {
			if seq < newSeq {
				d.removeObsolete(segName(seq))
			}
		}
	}

	if d.opts.OnStage != nil {
		d.opts.OnStage(obs.StageSnapshotPublish, time.Since(cutDone))
	}
	info := SnapshotInfo{Seq: newSeq, Records: len(entries), Bytes: size, Duration: time.Since(start)}
	d.snapshots.Add(1)
	d.snapSeq.Store(newSeq)
	d.snapRecs.Store(int64(len(entries)))
	d.snapBytes.Store(size)
	d.snapNanos.Store(int64(info.Duration))
	return info, nil
}

// collectLive snapshots the live record set (caller holds d.mu, so no
// mutation races; probes may read concurrently). Cheap: value slices are
// immutable by contract, only headers are copied.
func (d *DurableStore) collectLive() []snapEntry {
	entries := make([]snapEntry, 0, d.Store.Len())
	d.Store.Range(func(id uint64, vals []string) bool {
		entries = append(entries, snapEntry{id: id, vals: vals})
		return true
	})
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })
	return entries
}

// bufFile adapts a buffered *os.File to wal.File for bulk snapshot writes
// (one write syscall per flush instead of per record frame).
type bufFile struct {
	f  *os.File
	bw *bufio.Writer
}

func (b *bufFile) Write(p []byte) (int, error) { return b.bw.Write(p) }
func (b *bufFile) Sync() error {
	if err := b.bw.Flush(); err != nil {
		return err
	}
	return b.f.Sync()
}

// writeSnapshotFile writes, fsyncs and atomically publishes snap-<seq>.db.
func (d *DurableStore) writeSnapshotFile(seq, nextID uint64, entries []snapEntry) (int64, error) {
	final := filepath.Join(d.dir, snapName(seq))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	bf := &bufFile{f: f, bw: bufio.NewWriterSize(f, 1<<20)}
	w := wal.NewWriter(bf, 0, wal.Options{Policy: wal.SyncNever})
	var buf []byte
	write := func() error {
		buf = appendSnapHeader(buf[:0], d.Store.arity, nextID, len(entries))
		if err := w.Append(buf); err != nil {
			return err
		}
		for _, e := range entries {
			buf = appendAddOp(buf[:0], e.id, e.vals)
			if err := w.Append(buf); err != nil {
				return err
			}
		}
		return w.Sync() // flush + fsync: the bytes are on disk before the rename publishes them
	}
	if err := write(); err != nil {
		_ = f.Close() // best-effort: the write error is the one to report
		os.Remove(tmp)
		return 0, fmt.Errorf("match: writing snapshot %s: %w", tmp, err)
	}
	size := w.Offset()
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	// Until the rename's directory entry is durable, a crash may drop the
	// snapshot: the caller must not prune the history it covers.
	if err := syncDir(d.dir); err != nil {
		return 0, fmt.Errorf("match: publishing snapshot %s: %w", final, err)
	}
	return size, nil
}

// openSegment opens (creating if needed) log segment seq for appending at
// offset and fsyncs the directory, so an acknowledged append never lives
// in a file whose directory entry a crash can drop.
func openSegment(dir string, seq uint64, offset int64, opts wal.Options) (*wal.Writer, error) {
	w, err := wal.OpenFileWriter(filepath.Join(dir, segName(seq)), offset, opts)
	if err == nil {
		if err = syncDir(dir); err != nil {
			_ = w.Close() // best-effort: the sync error is the one to report
		}
	}
	if err != nil {
		return nil, fmt.Errorf("match: opening log segment %d: %w", seq, err)
	}
	return w, nil
}

// syncDir fsyncs a directory so the entries just created or renamed in it
// are durable.
func syncDir(dir string) error {
	df, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(df.Sync(), df.Close())
}

// Sync flushes the WAL to stable storage now (regardless of policy).
func (d *DurableStore) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrDurableClosed
	}
	return d.log.Sync()
}

// Close makes the shutdown clean: any unsnapshotted tail is rolled into a
// final snapshot (so the next open replays zero log frames), the WAL is
// synced, and the store refuses further mutations. Reads keep working.
func (d *DurableStore) Close() error {
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	needSnap := d.opsTail > 0
	d.mu.Unlock()
	var snapErr error
	if needSnap {
		_, snapErr = d.snapshotLocked()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed { // a failed snapshot may have failed the store closed
		return snapErr
	}
	d.closed = true
	return errors.Join(snapErr, d.log.Close())
}

// ReplayStats reports what OpenDurable replayed to rebuild this store.
func (d *DurableStore) ReplayStats() ReplayStats { return d.replay }

// Dir returns the data directory the store persists into.
func (d *DurableStore) Dir() string { return d.dir }

// DurableStats snapshots the durability counters (the wal_*/snapshot_*
// expvars cmd/serve publishes).
func (d *DurableStore) DurableStats() DurableStats {
	st := DurableStats{
		Dir:             d.dir,
		Snapshots:       d.snapshots.Load(),
		SnapshotSeq:     d.snapSeq.Load(),
		SnapshotRecords: d.snapRecs.Load(),
		SnapshotBytes:   d.snapBytes.Load(),
		SnapshotMillis:  d.snapNanos.Load() / int64(time.Millisecond),
		Replay:          d.replay,
	}
	d.mu.Lock()
	st.WALSeq = d.seq
	st.TailOps = d.opsTail
	apps, bytes, syncs := d.log.Stats()
	st.WALSegmentBytes = d.log.Offset()
	d.mu.Unlock()
	st.WALAppends = d.rotatedAppends.Load() + apps
	st.WALBytes = d.rotatedBytes.Load() + bytes
	st.WALSyncs = d.rotatedSyncs.Load() + syncs
	if st.SnapshotSeq == 0 && d.replay.SnapshotSeq > 0 {
		st.SnapshotSeq = d.replay.SnapshotSeq
	}
	return st
}

// --- op and snapshot-header encoding ---

func appendAddOp(dst []byte, id uint64, values []string) []byte {
	dst = append(dst, opAdd)
	dst = binary.AppendUvarint(dst, id)
	dst = binary.AppendUvarint(dst, uint64(len(values)))
	for _, v := range values {
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
	}
	return dst
}

func appendDeleteOp(dst []byte, id uint64) []byte {
	dst = append(dst, opDelete)
	return binary.AppendUvarint(dst, id)
}

// decodeOp decodes one logged operation. Damage inside an
// already-checksummed frame means an encoder bug or memory rot — decode
// errors are loud, never best-effort.
func decodeOp(p []byte) (op byte, id uint64, values []string, err error) {
	if len(p) == 0 {
		return 0, 0, nil, errors.New("empty op frame")
	}
	op, p = p[0], p[1:]
	id, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, 0, nil, errors.New("op frame has no record id")
	}
	p = p[n:]
	switch op {
	case opDelete:
		if len(p) != 0 {
			return 0, 0, nil, fmt.Errorf("delete op carries %d trailing bytes", len(p))
		}
		return op, id, nil, nil
	case opAdd:
		cnt, n := binary.Uvarint(p)
		if n <= 0 || cnt > maxSnapshotValues {
			return 0, 0, nil, fmt.Errorf("add op has a bad value count")
		}
		p = p[n:]
		values = make([]string, 0, cnt)
		for i := uint64(0); i < cnt; i++ {
			l, n := binary.Uvarint(p)
			if n <= 0 || uint64(len(p)-n) < l {
				return 0, 0, nil, fmt.Errorf("add op value %d overruns the frame", i)
			}
			p = p[n:]
			values = append(values, string(p[:l]))
			p = p[l:]
		}
		if len(p) != 0 {
			return 0, 0, nil, fmt.Errorf("add op carries %d trailing bytes", len(p))
		}
		return op, id, values, nil
	}
	return 0, 0, nil, fmt.Errorf("unknown op code %d", op)
}

func appendSnapHeader(dst []byte, arity int, nextID uint64, count int) []byte {
	dst = append(dst, snapMagic...)
	dst = binary.AppendUvarint(dst, uint64(arity))
	dst = binary.AppendUvarint(dst, nextID)
	return binary.AppendUvarint(dst, uint64(count))
}

func decodeSnapHeader(p []byte) (arity int, nextID uint64, count int, err error) {
	if len(p) < len(snapMagic) || !slices.Equal(p[:len(snapMagic)], snapMagic) {
		return 0, 0, 0, errors.New("bad snapshot magic (not a snapshot file, or an incompatible version)")
	}
	p = p[len(snapMagic):]
	a, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, 0, 0, errors.New("snapshot header missing arity")
	}
	if a < 1 || a > maxSnapshotValues {
		return 0, 0, 0, fmt.Errorf("snapshot header arity %d outside [1,%d]", a, maxSnapshotValues)
	}
	p = p[n:]
	next, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, 0, 0, errors.New("snapshot header missing next id")
	}
	p = p[n:]
	c, n := binary.Uvarint(p)
	if n <= 0 || len(p) != n {
		return 0, 0, 0, errors.New("snapshot header missing or trailing record count")
	}
	if c > math.MaxInt {
		return 0, 0, 0, fmt.Errorf("snapshot header record count %d overflows int", c)
	}
	return int(a), next, int(c), nil
}
