package learnrisk

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/par"
)

// The online resolve path: a trained Model plus a match.Store answer "here
// is a new record — who does it match?" without batch rebuilds. Candidates
// come from the store's incremental blocking index and rank by classifier
// probability alone: every (probe, candidate) pair gets its metric row and
// probability through the same pooled zero-allocation scratch Score uses,
// a bounded top-k heap keeps the k best, and only those k get the full
// verdict, with rule firing and the risk assessment of their label.

// Trace is a request-scoped stage timer (an alias for obs.Trace, see
// MatchConfig for the aliasing rationale). A nil *Trace disables all
// recording, so serving layers thread the pointer unconditionally.
type Trace = obs.Trace

// MatchResult is one resolved match: the stable store ID of the candidate
// record, the values its verdict was computed on (the store's immutable
// copy; callers must not modify it), and the full serving-path verdict of
// the (probe, candidate) pair. Results rank by classifier probability,
// ties toward the lower ID.
type MatchResult struct {
	ID     uint64
	Values []string
	Score  PairScore
}

// MatchConfig configures an online match store (blocking semantics and
// index maintenance). It aliases the implementation's config so callers
// outside this module can name it — the implementation lives under
// internal/, which import rules would otherwise make unreachable.
type MatchConfig = match.Config

// MatchStore is the online record store + incremental blocking index
// behind Resolve (an alias, see MatchConfig). Safe for concurrent use.
type MatchStore = match.Store

// NewMatchStore builds an empty online record store bound to the model's
// schema arity. Records added to it must carry one value per schema
// attribute, in training order — the same contract as Pair.
func (m *Model) NewMatchStore(cfg MatchConfig) (*MatchStore, error) {
	return match.New(len(m.attrs), cfg)
}

// DurableMatchStore is a MatchStore whose mutations survive restarts via a
// write-ahead log and periodic snapshots (an alias, see MatchConfig). It
// embeds MatchStore, so Resolve takes its .Store directly.
type DurableMatchStore = match.DurableStore

// DurableMatchOptions configures the durability layer (an alias, see
// MatchConfig).
type DurableMatchOptions = match.DurableOptions

// OpenDurableMatchStore opens (creating if needed) a durable online record
// store rooted at dir, bound to the model's schema arity, replaying any
// snapshot + log tail a previous process left there. Restart-safe: records
// added before a crash or clean shutdown are served again without
// re-ingest.
func (m *Model) OpenDurableMatchStore(dir string, cfg MatchConfig, opts DurableMatchOptions) (*DurableMatchStore, error) {
	return match.OpenDurable(dir, len(m.attrs), cfg, opts)
}

// resolveScratch is one resolve worker's reusable state: the probe scratch
// of the candidate index, the scoring scratch of the zero-alloc path, the
// per-probe candidates and the bounded top-k heap.
type resolveScratch struct {
	ps     match.ProbeScratch
	ss     *scoreScratch
	cands  []match.Candidate
	topk   match.TopK
	sorted []match.Scored
}

func (m *Model) acquireResolveScratch() *resolveScratch {
	if s, ok := m.resolvePool.Get().(*resolveScratch); ok {
		return s
	}
	return &resolveScratch{ss: m.acquireScratch()}
}

// checkResolve validates the store binding and one probe. Probe arity
// failures wrap ErrPairArity (a client error to serving layers).
func (m *Model) checkResolve(st *MatchStore, probe []string, k int) error {
	if st == nil {
		return errors.New("learnrisk: Resolve needs a match store (build one with NewMatchStore)")
	}
	if st.Arity() != len(m.attrs) {
		return fmt.Errorf("learnrisk: match store arity %d does not match the model schema's %d", st.Arity(), len(m.attrs))
	}
	if k <= 0 {
		return fmt.Errorf("learnrisk: Resolve needs k > 0, got %d", k)
	}
	if len(probe) != len(m.attrs) {
		return fmt.Errorf("learnrisk: probe has %d attribute values, model schema has %d (%s...): %w",
			len(probe), len(m.attrs), m.attrs[0].Name, ErrPairArity)
	}
	return nil
}

// Resolve finds the k best-scoring matches for one probe record among the
// store's live records: the incremental blocking index generates the
// candidate set (identical to a from-scratch batch blocking run over the
// surviving records), every candidate's classifier probability is computed
// on the zero-alloc serving path with the probe-side preparation cached
// across candidates, a bounded heap keeps the k highest (ties toward the
// lower record ID), and those k are risk-scored into full verdicts, each
// equal to Score on its pair. Fewer than k results means fewer candidates
// shared enough blocking tokens. Safe for concurrent use, including
// concurrently with Add/Delete on the store.
func (m *Model) Resolve(st *MatchStore, probe []string, k int) ([]MatchResult, error) {
	return m.ResolveTraced(st, probe, k, nil)
}

// ResolveTraced is Resolve with request-scoped stage timing: candidate
// generation on StageProbeTokenize, the per-candidate ranking pass and the
// survivors' verdicts on StageScore, and sorting the bounded heap on
// StageTopKMerge. A nil trace records nothing and takes no timestamps.
func (m *Model) ResolveTraced(st *MatchStore, probe []string, k int, tr *Trace) ([]MatchResult, error) {
	if err := m.checkResolve(st, probe, k); err != nil {
		return nil, err
	}
	s := m.acquireResolveScratch()
	out := m.resolveTracedInto(st, probe, k, nil, s, tr)
	m.resolvePool.Put(s)
	return out, nil
}

// ResolveBatch resolves several probes, sharding them across GOMAXPROCS
// workers (internal/par). Results are in probe order; each entry is exactly
// what Resolve returns for that probe against the same store snapshot.
func (m *Model) ResolveBatch(st *MatchStore, probes [][]string, k int) ([][]MatchResult, error) {
	for i, probe := range probes {
		if err := m.checkResolve(st, probe, k); err != nil {
			return nil, fmt.Errorf("probe %d: %w", i, err)
		}
	}
	out := make([][]MatchResult, len(probes))
	par.ForChunks(len(probes), resolveBatchChunk, func(_, lo, hi int) {
		s := m.acquireResolveScratch()
		for i := lo; i < hi; i++ {
			out[i] = m.resolveInto(st, probes[i], k, s)
		}
		m.resolvePool.Put(s)
	})
	return out, nil
}

// resolveBatchChunk is the probe granularity of ResolveBatch workers: one
// probe fans out into many candidate scorings, so chunks stay small to
// load-balance skewed candidate counts.
const resolveBatchChunk = 4

// resolveInto runs one (already-validated) probe inside a scratch.
func (m *Model) resolveInto(st *MatchStore, probe []string, k int, s *resolveScratch) []MatchResult {
	return m.resolveTracedInto(st, probe, k, nil, s, nil)
}

// resolveTracedInto resolves one (already-validated) probe, minus the skip
// list's globally pruned tokens, into full verdicts: the flat resolve, and
// one partition's leg of a partitioned resolve. The survivors of the
// ranking are scored from the value slices the probe gathered, so a
// record deleted after it was ranked keeps its verdict and its values.
func (m *Model) resolveTracedInto(st *MatchStore, probe []string, k int, skip []string, s *resolveScratch, tr *Trace) []MatchResult {
	m.rankInto(st, probe, k, skip, s, tr)
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	out := make([]MatchResult, len(s.sorted))
	for i, e := range s.sorted {
		c := s.cands[e.ID]
		out[i] = MatchResult{ID: c.ID, Values: c.Values, Score: m.scorePair(Pair{Left: probe, Right: c.Values}, s.ss)}
	}
	// The pooled scratch must not keep deleted records reachable.
	clear(s.cands)
	if tr != nil {
		tr.Add(obs.StageScore, time.Since(t0))
	}
	return out
}

// rankInto is the shared resolve core: candidates from the incremental
// index (minus the skip list's globally pruned tokens), each ranked by its
// classifier probability on the zero-alloc path, the k best retained. It
// leaves the ranking in the scratch — s.sorted holds positions in s.cands
// best-first, and s.cands holds each candidate's ID and the values it was
// ranked on.
func (m *Model) rankInto(st *MatchStore, probe []string, k int, skip []string, s *resolveScratch, tr *Trace) {
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	var err error
	s.cands, err = st.AppendCandidates(s.cands[:0], probe, &s.ps, skip)
	if err != nil {
		// Unreachable: AppendCandidates' only failure is its arity check,
		// and checkResolve pinned the probe's arity to the store's before
		// any resolve work started. The store's arity is immutable.
		panic("learnrisk: resolve invariant violated: " + err.Error())
	}
	if tr != nil {
		now := time.Now()
		tr.Add(obs.StageProbeTokenize, now.Sub(t0))
		t0 = now
	}
	s.topk.Reset(k)
	for i, c := range s.cands {
		// Candidates arrive in ascending ID order, so the position
		// preserves the ID tie-break.
		s.topk.Offer(match.Scored{ID: uint64(i), Rank: m.probPair(Pair{Left: probe, Right: c.Values}, s.ss)})
	}
	if tr != nil {
		now := time.Now()
		tr.Add(obs.StageScore, now.Sub(t0))
		t0 = now
	}
	s.sorted = s.topk.AppendSorted(s.sorted[:0])
	if tr != nil {
		tr.Add(obs.StageTopKMerge, time.Since(t0))
	}
}
