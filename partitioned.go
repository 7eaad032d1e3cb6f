package learnrisk

import (
	"fmt"
	"slices"

	"repro/internal/match"
	"repro/internal/partition"
)

// The partitioned resolve path: a PartitionedMatchStore consistent-hashes
// records across N ≥ 1 independent match partitions and answers Resolve by
// scatter-gather — every partition ranks the probe concurrently on the
// pooled zero-allocation path, the per-partition top-k rankings merge into
// one order-stable top k, and only the merged k get verdicts. The result
// is bit-identical (order included) to Model.Resolve against a single flat
// store over the same records. See internal/partition for the routing
// design (global ID allocation, jump consistent hashing, and stop-token
// pruning on live counts summed over the partitions, which keeps it
// exact).

// PartitionedMatchStore is the partitioned online record store (an alias,
// see MatchConfig for why). Safe for concurrent use.
type PartitionedMatchStore = partition.Store

// NewPartitionedMatchStore builds an empty in-memory partitioned store
// bound to the model's schema: partitions independent match stores behind
// one router, records routed by consistent-hashed global IDs, probes
// scattered to all partitions and gathered through an order-stable top-k
// merge, with cfg.MaxBlockSize bounding a token's live records summed
// over the partitions.
func (m *Model) NewPartitionedMatchStore(partitions int, cfg MatchConfig) (*PartitionedMatchStore, error) {
	return partition.New(len(m.attrs), m.needs, partition.Options{
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
	return partition.OpenDurable(dir, len(m.attrs), m.needs, partition.Options{
		Partitions: partitions,
		Match:      cfg,
		Durable:    opts,
		Progress:   progress,
	})
}

// ResolvePartitioned finds the k best-scoring matches for one probe among
// a partitioned store's live records: the router prunes stop tokens on
// their live counts summed over the partitions, every partition ranks the
// probe concurrently, the per-partition rankings merge into the k best,
// and those k get full verdicts. The ranked slice is bit-identical to
// Model.Resolve against one flat store holding the same records (the
// cross-layer equivalence test pins this). Safe for concurrent use, including with Add/Delete on the
// store: a record deleted after its partition ranked it keeps its verdict,
// built from the values and residue its ranking carried, exactly as a flat
// resolve racing the same delete would.
func (m *Model) ResolvePartitioned(ps *PartitionedMatchStore, probe []string, k int) ([]MatchResult, error) {
	return m.ResolvePartitionedTraced(ps, probe, k, nil)
}

// resolveLegHook, when a test sets it, sees each partition leg's ranking
// right after the leg ranked it: the window in which a racing delete can
// remove a winner before the merge.
var resolveLegHook func(res []match.Ranked)

// ResolvePartitionedTraced is ResolvePartitioned with request-scoped
// stage timing: the router records the pruning verdict, the scatter (with
// slowest-partition attribution) and the merge; every leg adds its
// candidate generation, ranking and local top k to the same stages, and
// the merged survivors' verdicts land on StageScore. A nil trace records
// nothing.
func (m *Model) ResolvePartitionedTraced(ps *PartitionedMatchStore, probe []string, k int, tr *Trace) ([]MatchResult, error) {
	if ps == nil {
		return nil, fmt.Errorf("learnrisk: ResolvePartitioned needs a partitioned store (build one with NewPartitionedMatchStore)")
	}
	if ps.Arity() != len(m.attrs) {
		return nil, fmt.Errorf("learnrisk: partitioned store arity %d does not match the model schema's %d", ps.Arity(), len(m.attrs))
	}
	if !ps.KeepsNeeds(m.needs) {
		return nil, errStoreNeeds
	}
	ranked, err := partition.Resolve(ps, probe, k, tr, func(st *MatchStore, skip []string) []match.Ranked {
		s := m.acquireResolveScratch()
		m.rankInto(st, probe, k, skip, s, tr)
		res := slices.Clone(s.ranked)
		// The pooled scratch must not keep deleted records reachable.
		clear(s.ranked)
		m.resolvePool.Put(s)
		if resolveLegHook != nil {
			resolveLegHook(res)
		}
		return res
	})
	if err != nil {
		return nil, err
	}
	s := m.acquireResolveScratch()
	out := m.verdicts(probe, ranked, s, tr)
	m.resolvePool.Put(s)
	return out, nil
}
