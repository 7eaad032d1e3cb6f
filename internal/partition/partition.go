// Package partition is the online match subsystem's record store: a Store
// consistent-hashes records across N ≥ 1 independent match partitions —
// each an in-process match.Store with its own blocking index and mutation
// domain, so an add or delete touches exactly one partition's locks — and
// answers Resolve by scatter-gather: a caller-supplied leg ranks the probe
// against every partition's records concurrently, and the per-partition
// top-k lists merge into one order-stable result (Prob descending, ID
// ascending) that is bit-identical to what a single flat store over the
// same records would return (the fuzzed oracle test pins this). One
// partition is the flat store: the router adds only the skip-list sum and
// a one-leg merge.
//
// Two decisions make the bit-identical claim hold:
//
//   - Record IDs are assigned globally by the Store's own allocator and
//     records are routed by consistent-hashing the ID, so the tie-break
//     order (lower ID wins) is the same order a flat store would have
//     produced.
//   - Stop-token pruning is decided globally: a partition's posting list
//     holds only its share of a token's records, so at probe time the
//     router sums each probe token's live count over the partitions
//     (match.Store.AddLiveCounts) and passes every partition the tokens
//     whose sum exceeds MaxBlockSize as a sorted skip list — exactly the
//     verdict the flat store's per-posting live counts would have reached.
//     The partitions keep their own MaxBlockSize check: a partition's
//     count never exceeds the sum, so it prunes only tokens the skip list
//     already holds.
//
// OpenDurable wraps every partition in match's durability layer (WAL +
// snapshots) under one data dir; see partDirs for the layout rule.
package partition

import (
	"errors"

	"repro/internal/match"
)

// ErrNotDurable marks snapshot requests against an in-memory store.
var ErrNotDurable = errors.New("partition: store is not durable")

// part is one partition: its match store and, on a durable Store, the
// durability layer its mutations go through (reads and probes hit st
// directly).
type part struct {
	st  *match.Store
	dur *match.DurableStore // nil in memory
}
