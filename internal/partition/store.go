package partition

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/match"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/par"
)

// Options configures New and OpenDurable.
type Options struct {
	// Partitions is the number of independent match partitions (default 1).
	// For a durable store the count is fixed at creation: consistent
	// hashing routes record IDs to partitions, so reopening a data dir with
	// a different count would look records up in the wrong partition —
	// OpenDurable refuses the mismatch.
	Partitions int
	// Match is every partition's blocking configuration. MaxBlockSize
	// bounds a token's live records summed over the partitions, so pruning
	// verdicts match a single flat store over the same records.
	Match match.Config
	// Durable configures each partition's durability layer (OpenDurable
	// only). Its Progress hook is superseded by the partition-aware one
	// below.
	Durable match.DurableOptions
	// Progress, when set, receives per-partition replay progress during
	// OpenDurable (phase is "snapshot" or "log"; total is -1 while
	// unknown).
	Progress func(part int, phase string, done, total int)
}

func (o Options) withDefaults() Options {
	if o.Partitions <= 0 {
		o.Partitions = 1
	}
	return o
}

// Store is the online match store: records consistent-hash across
// partitions, probes scatter to every partition concurrently and gather
// through one order-stable top-k merge (Resolve). All methods are safe for
// concurrent use. Under serial mutations the resolve results are
// bit-identical to a single flat store's (the fuzzed oracle test); under
// concurrent mutation the partitions' live counts are summed one partition
// at a time, so a racing add or delete can only shift pruning verdicts —
// the same heuristic drift a flat store's own racing live counts exhibit.
type Store struct {
	arity    int
	maxBlock int // the partitions' resolved stop-token bound (<= 0 disables)
	parts    []part
	nextID   atomic.Uint64

	probes atomic.Int64
	pruned atomic.Int64
}

// jumpHash is Lamping & Veach's jump consistent hash: O(ln buckets), no
// tables, and monotone under growth (raising the bucket count only moves
// the minimal fraction of keys), which is what a future repartitioning
// wants from the router.
//
//vetkit:hotpath
func jumpHash(key uint64, buckets int) int {
	var b, j int64 = -1, 0
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// partitionOf routes a record ID to its owning partition.
//
//vetkit:hotpath
func (s *Store) partitionOf(id uint64) int { return jumpHash(id, len(s.parts)) }

// New builds an in-memory store for records of the given arity, each
// keeping the residue of the forms needs names (match.New). Every
// partition is a match.Store built with Options.Match.
func New(arity int, needs []metrics.Need, o Options) (*Store, error) {
	o = o.withDefaults()
	parts := make([]part, o.Partitions)
	for i := range parts {
		st, err := match.New(arity, needs, o.Match)
		if err != nil {
			return nil, err
		}
		parts[i] = part{st: st}
	}
	return newStore(arity, parts), nil
}

// newStore is the router over built partitions, shared by New and
// OpenDurable. Its stop-token bound is the partitions' resolved
// MaxBlockSize (defaults filled in).
func newStore(arity int, parts []part) *Store {
	return &Store{
		arity:    arity,
		maxBlock: parts[0].st.Config().MaxBlockSize,
		parts:    parts,
	}
}

// Arity returns the schema arity records and probes must carry.
func (s *Store) Arity() int { return s.arity }

// KeepsNeeds reports whether every partition's records keep the residue
// of exactly the forms needs names (match.Store.KeepsNeeds); all
// partitions are built with the same needs.
func (s *Store) KeepsNeeds(needs []metrics.Need) bool { return s.parts[0].st.KeepsNeeds(needs) }

// Partitions returns the partition count.
func (s *Store) Partitions() int { return len(s.parts) }

// Durable reports whether the partitions persist their mutations (built by
// OpenDurable).
func (s *Store) Durable() bool { return s.parts[0].dur != nil }

// NextID reports the next record ID the store would assign.
func (s *Store) NextID() uint64 { return s.nextID.Load() }

// Len sums the partitions' live record counts.
func (s *Store) Len() int {
	n := 0
	for _, p := range s.parts {
		n += p.st.Len()
	}
	return n
}

// Add assigns the next global record ID and routes the record to the
// partition the ID hashes to. The ID sequence is exactly the one a flat
// store would have assigned, so ranking tie-breaks are
// partition-invariant.
func (s *Store) Add(values []string) (uint64, error) {
	return s.AddTraced(values, nil)
}

// AddTraced is Add carrying a request-scoped trace into the owning
// partition's durability path (WAL append/fsync/apply stages). A nil
// trace records nothing.
func (s *Store) AddTraced(values []string, tr *obs.Trace) (uint64, error) {
	if len(values) != s.arity {
		return 0, fmt.Errorf("partition: record has %d values, store schema has %d: %w", len(values), s.arity, match.ErrArity)
	}
	id := s.nextID.Add(1) - 1
	p := s.parts[s.partitionOf(id)]
	var err error
	if p.dur != nil {
		// The wal-before-apply contract lives in match.DurableStore.AddAt.
		err = p.dur.AddAtTraced(id, values, tr)
	} else {
		err = p.st.AddAt(id, values)
	}
	if err != nil {
		return 0, err
	}
	return id, nil
}

// Delete routes the delete to the record's owning partition. False means
// the ID is unknown or already deleted.
func (s *Store) Delete(id uint64) (bool, error) {
	return s.DeleteTraced(id, nil)
}

// DeleteTraced is Delete carrying a request-scoped trace (see AddTraced).
func (s *Store) DeleteTraced(id uint64, tr *obs.Trace) (bool, error) {
	p := s.parts[s.partitionOf(id)]
	if p.dur != nil {
		return p.dur.DeleteTraced(id, tr)
	}
	return p.st.Delete(id), nil
}

// Get fetches a record from its owning partition (the store's immutable
// copy of the values).
func (s *Store) Get(id uint64) ([]string, bool) {
	return s.parts[s.partitionOf(id)].st.Get(id)
}

// Resolve is the scatter-gather probe: the partitions' summed live counts
// decide the probe's pruned stop tokens once, leg ranks the probe against
// every partition's store concurrently with that verdict applied, and the
// per-partition lists merge into the k best. leg must honor the skip list
// (sorted ascending) and return at most k ranked candidates, best first
// (Prob descending, ties toward the lower record ID); the merge is only
// exact when every leg reports its partition's true top k. Exactness of
// the merge: the ranking is a total order (IDs are global and unique), so
// any record in the global top k is in its own partition's top k, and
// merging the partitions' k-bounded lists loses nothing. Verdicts are the
// caller's, built once for the merged k.
//
// With a trace, the pruning verdict lands on StageProbeTokenize, the
// scatter wall time on StageScatter with per-leg durations feeding the
// slowest-partition attribution (StageScatterSlowest + Trace.Slowest), and
// the merge on StageTopKMerge. A nil trace records nothing and takes no
// timestamps.
func Resolve(s *Store, probe []string, k int, tr *obs.Trace, leg func(st *match.Store, skip []string) []match.Ranked) ([]match.Ranked, error) {
	if k <= 0 {
		return nil, fmt.Errorf("partition: Resolve needs k > 0, got %d", k)
	}
	if len(probe) != s.arity {
		return nil, fmt.Errorf("partition: probe has %d values, store schema has %d: %w", len(probe), s.arity, match.ErrArity)
	}
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	skip, err := s.skipList(probe)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		now := time.Now()
		tr.Add(obs.StageProbeTokenize, now.Sub(t0))
		t0 = now
	}
	n := len(s.parts)
	per := make([][]match.Ranked, n)
	// Workers == partitions: each leg is one independent index probe plus
	// ranking; the point of partitioning is that they run at the same time.
	par.ForWorkers(n, n, func(i int) {
		var legStart time.Time
		if tr != nil {
			legStart = time.Now()
		}
		per[i] = leg(s.parts[i].st, skip)
		if tr != nil {
			tr.ObservePartition(i, time.Since(legStart))
		}
	})
	if tr != nil {
		now := time.Now()
		tr.Add(obs.StageScatter, now.Sub(t0))
		if _, slowest := tr.Slowest(); slowest > 0 {
			tr.Add(obs.StageScatterSlowest, slowest)
		}
		t0 = now
	}
	merged := slices.Concat(per...)
	slices.SortFunc(merged, match.Ranked.Compare)
	merged = merged[:min(k, len(merged))]
	s.probes.Add(1)
	s.pruned.Add(int64(len(skip)))
	if tr != nil {
		tr.Add(obs.StageTopKMerge, time.Since(t0))
	}
	return merged, nil
}

// Snapshot cuts a snapshot of every durable partition concurrently and
// returns the per-partition results (indexed by partition).
// ErrNotDurable on an in-memory store.
func (s *Store) Snapshot() ([]match.SnapshotInfo, error) {
	if !s.Durable() {
		return nil, fmt.Errorf("%w: the store has no data dir", ErrNotDurable)
	}
	n := len(s.parts)
	infos := make([]match.SnapshotInfo, n)
	errs := make([]error, n)
	par.ForWorkers(n, n, func(i int) {
		infos[i], errs[i] = s.parts[i].dur.Snapshot()
	})
	return infos, errors.Join(errs...)
}

// Close seals every durable partition concurrently (each rolls its tail
// into a final snapshot). An in-memory store has nothing to seal.
func (s *Store) Close() error {
	if !s.Durable() {
		return nil
	}
	n := len(s.parts)
	errs := make([]error, n)
	par.ForWorkers(n, n, func(i int) {
		errs[i] = s.parts[i].dur.Close()
	})
	return errors.Join(errs...)
}

// skipList computes the probe's globally pruned stop tokens: every
// distinct probe token whose live record count, summed over the
// partitions, exceeds the resolved MaxBlockSize — the same predicate a
// flat store applies per posting list — sorted ascending for the
// partitions' binary-search skip check. Every partition tokenizes alike,
// so the first one tokenizes the probe for all of them.
func (s *Store) skipList(probe []string) ([]string, error) {
	if s.maxBlock <= 0 {
		return nil, nil
	}
	var toks []string
	if err := s.parts[0].st.DistinctTokens(probe, func(t string) { toks = append(toks, t) }); err != nil {
		return nil, err
	}
	counts := make([]int, len(toks))
	for _, p := range s.parts {
		p.st.AddLiveCounts(toks, counts)
	}
	skip := toks[:0] // filters in place: index i is read before it is overwritten
	for i, t := range toks {
		if counts[i] > s.maxBlock {
			skip = append(skip, t)
		}
	}
	slices.Sort(skip)
	return skip, nil
}

// --- stats ---

// Stats is the router-level view the partition_stats expvar publishes.
type Stats struct {
	Partitions   int   `json:"partitions"`
	Records      []int `json:"records"`       // live records per partition (skew at a glance)
	Probes       int64 `json:"probes"`        // scatter-gather resolves served
	PrunedTokens int64 `json:"pruned_tokens"` // probe tokens pruned on their summed live count, cumulative
}

// Stats snapshots the router counters.
func (s *Store) Stats() Stats {
	st := Stats{
		Partitions:   len(s.parts),
		Records:      make([]int, len(s.parts)),
		Probes:       s.probes.Load(),
		PrunedTokens: s.pruned.Load(),
	}
	for i, p := range s.parts {
		st.Records[i] = p.st.Len()
	}
	return st
}

// PartitionStats snapshots every partition's index counters.
func (s *Store) PartitionStats() []match.Stats {
	out := make([]match.Stats, len(s.parts))
	for i, p := range s.parts {
		out[i] = p.st.Stats()
	}
	return out
}

// DurableStats snapshots every partition's durability counters (the
// wal_stats/snapshot_stats expvars), indexed by partition; nil on an
// in-memory store.
func (s *Store) DurableStats() []match.DurableStats {
	if !s.Durable() {
		return nil
	}
	out := make([]match.DurableStats, len(s.parts))
	for i, p := range s.parts {
		out[i] = p.dur.DurableStats()
	}
	return out
}
