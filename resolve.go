package learnrisk

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/match"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/par"
)

// The online resolve path: a trained Model plus a match.Store answer "here
// is a new record — who does it match?" without batch rebuilds, and each
// resolve does only the work its answer needs:
//
//   - Every stored record keeps the residue of its metric forms (normalized
//     strings, token order, numeric parses), derived once when the record
//     is added, under the needs of the model's catalog. A candidate's forms
//     are rebuilt from it rather than derived again.
//   - Candidates come from the store's incremental blocking index and rank
//     by classifier probability alone, computed on the classifier's own
//     view columns: the difference metrics the network never reads are
//     left out of the ranking. A bounded top-k heap keeps the k best.
//   - Only those k get the full metric row and the verdict, with rule
//     firing and the risk assessment of their label. A partitioned resolve
//     builds them once, after merging its partitions' rankings. The view
//     columns of the full row come from the same kernels over equal forms,
//     so each verdict's Prob is its rank bit for bit.
//
// The pooled scratch keeps every step at zero allocations per candidate.

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
	return match.New(len(m.attrs), m.needs, cfg)
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
	return match.OpenDurable(dir, len(m.attrs), m.needs, cfg, opts)
}

// withResolveView sets the resolve path's slice of the model from its
// catalog and matcher, and returns m: the per-attribute forms of the full
// catalog, which every store the model builds keeps per record, and the
// catalog of the classifier's view columns with the forms they read.
func (m *Model) withResolveView() *Model {
	m.needs = m.cat.AttrNeeds()
	m.view = &metrics.Catalog{Corpora: m.cat.Corpora}
	for _, c := range m.matcher.ViewCols() {
		m.view.Metrics = append(m.view.Metrics, m.cat.Metrics[c])
	}
	m.viewNeeds = m.view.AttrNeeds()
	return m
}

// resolveScratch is one resolve worker's reusable state: the probe scratch
// of the candidate index, the probe's and one candidate's prepared forms,
// the view row and the metric kernels' scratch, the per-probe candidates,
// the bounded top-k heap and the ranked survivors, and the scoring scratch
// whose classifier and rule buffers the verdicts use.
type resolveScratch struct {
	ps     match.ProbeScratch
	probe  []metrics.Prepared
	cand   []metrics.Prepared
	view   []float64
	ms     metrics.Scratch
	cands  []match.Candidate
	topk   match.TopK
	sorted []match.Scored
	ranked []match.Ranked
	ss     *scoreScratch
}

func (m *Model) acquireResolveScratch() *resolveScratch {
	if s, ok := m.resolvePool.Get().(*resolveScratch); ok {
		return s
	}
	return &resolveScratch{
		probe: make([]metrics.Prepared, len(m.attrs)),
		cand:  make([]metrics.Prepared, len(m.attrs)),
		view:  make([]float64, len(m.view.Metrics)),
		ss:    m.acquireScratch(),
	}
}

// errStoreNeeds refuses a store whose records keep the metric forms of
// another schema: ranking on them would feed the kernels empty forms.
var errStoreNeeds = errors.New("learnrisk: the store's records keep the metric forms of another schema; build the store with this model")

// checkResolve validates the store binding and one probe. Probe arity
// failures wrap ErrPairArity (a client error to serving layers).
func (m *Model) checkResolve(st *MatchStore, probe []string, k int) error {
	if st == nil {
		return errors.New("learnrisk: Resolve needs a match store (build one with NewMatchStore)")
	}
	if st.Arity() != len(m.attrs) {
		return fmt.Errorf("learnrisk: match store arity %d does not match the model schema's %d", st.Arity(), len(m.attrs))
	}
	if !st.KeepsNeeds(m.needs) {
		return errStoreNeeds
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
// from its kept forms on the zero-alloc path, a bounded heap keeps the k
// highest (ties toward the lower record ID), and those k are risk-scored
// into full verdicts, each equal to Score on its pair. Fewer than k
// results means fewer candidates shared enough blocking tokens. The store
// must be one the model built (or one of the same schema). Safe for
// concurrent use, including concurrently with Add/Delete on the store.
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
	out := m.resolveInto(st, probe, k, s, tr)
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
			out[i] = m.resolveInto(st, probes[i], k, s, nil)
		}
		m.resolvePool.Put(s)
	})
	return out, nil
}

// resolveBatchChunk is the probe granularity of ResolveBatch workers: one
// probe fans out into many candidate scorings, so chunks stay small to
// load-balance skewed candidate counts.
const resolveBatchChunk = 4

// resolveInto is the flat resolve of one (already-validated) probe inside
// a scratch: the ranking, then the survivors' verdicts.
func (m *Model) resolveInto(st *MatchStore, probe []string, k int, s *resolveScratch, tr *Trace) []MatchResult {
	m.rankInto(st, probe, k, nil, s, tr)
	out := m.verdicts(probe, s.ranked, s, tr)
	// The pooled scratch must not keep deleted records reachable.
	clear(s.ranked)
	return out
}

// rankInto ranks one (already-validated) probe: the flat resolve's first
// half, and one partition's leg of a partitioned resolve. Candidates come
// from the incremental index (minus the skip list's globally pruned
// tokens) and are ranked by classifier probability on the view
// (rankCandidates); the k best are left in s.ranked, best first, each
// with the values and residue it was ranked on, so a record deleted after
// it was ranked keeps its verdict and its values.
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
	m.rankCandidates(probe, k, s)
	if tr != nil {
		now := time.Now()
		tr.Add(obs.StageScore, now.Sub(t0))
		t0 = now
	}
	s.sorted = s.topk.AppendSorted(s.sorted[:0])
	s.ranked = s.ranked[:0]
	for _, e := range s.sorted {
		s.ranked = append(s.ranked, match.Ranked{Candidate: s.cands[e.ID], Prob: e.Rank})
	}
	// The pooled scratch must not keep deleted records reachable.
	clear(s.cands)
	if tr != nil {
		tr.Add(obs.StageTopKMerge, time.Since(t0))
	}
}

// rankCandidates offers every candidate of s.cands to the top-k heap,
// ranked by the classifier probability of its view row: the probe's forms
// are derived once under the view's needs, each candidate's are rebuilt
// from its residue under the same needs.
//
//vetkit:hotpath
func (m *Model) rankCandidates(probe []string, k int, s *resolveScratch) {
	s.topk.Reset(k)
	if len(s.cands) == 0 {
		return
	}
	for a := range s.probe {
		s.probe[a].Reset(probe[a], m.viewNeeds[a])
	}
	for i, c := range s.cands {
		metrics.RebuildRow(s.cand, c.Values, c.Residue, m.viewNeeds)
		m.view.ComputePreparedInto(s.view, s.probe, s.cand, &s.ms)
		// Candidates arrive in ascending ID order, so the position
		// preserves the ID tie-break.
		s.topk.Offer(match.Scored{ID: uint64(i), Rank: m.matcher.ProbViewScratch(s.view, s.ss.prob)})
	}
}

// verdicts builds the full verdict of every ranked survivor, in rank
// order, each equal to Score on its (probe, candidate) pair. The flat and
// the partitioned resolve share it; its time lands on StageScore.
func (m *Model) verdicts(probe []string, ranked []match.Ranked, s *resolveScratch, tr *Trace) []MatchResult {
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	out := make([]MatchResult, len(ranked))
	m.verdictsInto(out, probe, ranked, s)
	if tr != nil {
		tr.Add(obs.StageScore, time.Since(t0))
	}
	return out
}

// verdictsInto fills out with the verdicts of the ranked survivors: the
// probe's forms under the full catalog's needs, each survivor's rebuilt
// from the residue it was ranked with, the full metric row, rule firing
// and the risk assessment of the label.
//
//vetkit:hotpath
func (m *Model) verdictsInto(out []MatchResult, probe []string, ranked []match.Ranked, s *resolveScratch) {
	if len(ranked) == 0 {
		return
	}
	for a := range s.probe {
		s.probe[a].Reset(probe[a], m.needs[a])
	}
	row := s.ss.row[:len(m.cat.Metrics)]
	for i, r := range ranked {
		metrics.RebuildRow(s.cand, r.Values, r.Residue, m.needs)
		m.cat.ComputePreparedInto(row, s.probe, s.cand, &s.ms)
		out[i] = MatchResult{ID: r.ID, Values: r.Values, Score: m.scoreRow(row, s.ss)}
	}
}
