package learnrisk

import (
	"fmt"

	"repro/internal/match"
	"repro/internal/partition"
)

// The partitioned resolve path: a PartitionedMatchStore consistent-hashes
// records across N ≥ 1 independent match partitions and answers Resolve by
// scatter-gather — every partition ranks the probe concurrently on the
// pooled zero-allocation scoring path, and the per-partition top-k lists
// merge into one order-stable result that is bit-identical (order
// included) to Model.Resolve against a single flat store over the same
// records. See internal/partition for the routing design (global ID
// allocation, jump consistent hashing, the global token census that keeps
// stop-token pruning exact).

// PartitionedMatchStore is the partitioned online record store (an alias,
// see MatchConfig for why). Safe for concurrent use.
type PartitionedMatchStore = partition.Store

// NewPartitionedMatchStore builds an empty in-memory partitioned store
// bound to the model's schema: partitions independent match stores behind
// one router, records routed by consistent-hashed global IDs, probes
// scattered to all partitions and gathered through an order-stable top-k
// merge, with cfg.MaxBlockSize enforced globally by the router's token
// census.
func (m *Model) NewPartitionedMatchStore(partitions int, cfg MatchConfig) (*PartitionedMatchStore, error) {
	return partition.New(len(m.attrs), partition.Options{
		Partitions: partitions,
		Match:      cfg,
	})
}

// OpenDurablePartitionedMatchStore opens (creating if needed) a durable
// partitioned store rooted at dir: each partition persists into its own
// part-NNN subdirectory (WAL + snapshots), partitions replay concurrently
// at open, and the partition count is fixed at the dir's creation. A dir
// written by OpenDurableMatchStore opens in place as one partition.
// progress, when non-nil, receives per-partition replay progress.
func (m *Model) OpenDurablePartitionedMatchStore(dir string, partitions int, cfg MatchConfig, opts DurableMatchOptions, progress func(part int, phase string, done, total int)) (*PartitionedMatchStore, error) {
	return partition.OpenDurable(dir, len(m.attrs), partition.Options{
		Partitions: partitions,
		Match:      cfg,
		Durable:    opts,
		Progress:   progress,
	})
}

// ResolvePartitioned finds the k best-scoring matches for one probe among
// a partitioned store's live records: the router prunes stop tokens from
// its global census, every partition ranks the probe concurrently into
// full verdicts, and the per-partition lists merge into the k best. The
// ranked slice is bit-identical to Model.Resolve against one flat store
// holding the same records (the cross-layer equivalence test pins this).
// Safe for concurrent use, including with Add/Delete on the store: a
// record deleted after its partition ranked it keeps its verdict, exactly
// as a flat resolve racing the same delete would.
func (m *Model) ResolvePartitioned(ps *PartitionedMatchStore, probe []string, k int) ([]MatchResult, error) {
	return m.ResolvePartitionedTraced(ps, probe, k, nil)
}

// resolveLegHook, when a test sets it, sees each partition leg's results
// right after the leg ranked them: the window in which a racing delete can
// remove a winner before the merge.
var resolveLegHook func(res []MatchResult)

// ResolvePartitionedTraced is ResolvePartitioned with request-scoped
// stage timing: the router records census pruning, the scatter (with
// slowest-partition attribution) and the merge; every leg adds its
// candidate generation, scoring and local ranking to the same stages. A
// nil trace records nothing.
func (m *Model) ResolvePartitionedTraced(ps *PartitionedMatchStore, probe []string, k int, tr *Trace) ([]MatchResult, error) {
	if ps == nil {
		return nil, fmt.Errorf("learnrisk: ResolvePartitioned needs a partitioned store (build one with NewPartitionedMatchStore)")
	}
	if ps.Arity() != len(m.attrs) {
		return nil, fmt.Errorf("learnrisk: partitioned store arity %d does not match the model schema's %d", ps.Arity(), len(m.attrs))
	}
	return partition.Resolve(ps, probe, k, tr, func(st *MatchStore, skip []string) []MatchResult {
		s := m.acquireResolveScratch()
		res := m.resolveTracedInto(st, probe, k, skip, s, tr)
		m.resolvePool.Put(s)
		if resolveLegHook != nil {
			resolveLegHook(res)
		}
		return res
	}, rankKey)
}

// rankKey is a result's key in the resolve order: classifier probability
// descending, ties toward the lower record ID.
func rankKey(r MatchResult) match.Scored {
	return match.Scored{ID: r.ID, Rank: r.Score.Prob}
}
