// Package server turns a trained learnrisk.Model into a network service:
// an HTTP JSON API over an atomically hot-swappable model artifact and an
// online record store.
//
// Scoring has no queue. Each request loads the served model snapshot once
// and calls it directly: POST /v1/score runs Model.Score, POST
// /v1/score/batch runs Model.ScoreBatch and POST /v1/explain runs Score and
// ExplainPair. Concurrent requests score on their own goroutines over the
// model's pooled scratch, and every verdict is bit-identical to calling
// the model in process.
package server

import (
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	learnrisk "repro"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/partition"
)

// Sentinel errors the HTTP layer classifies with errors.Is; the wrapped
// messages carry the details.
var (
	// ErrFingerprintConflict marks a refused hot-swap: the new model's
	// schema fingerprint differs from the served one and force was not set.
	ErrFingerprintConflict = errors.New("server: model schema fingerprint conflict")
	// ErrNoArtifactPath marks a reload with no usable artifact path.
	ErrNoArtifactPath = errors.New("server: no artifact path")
	// ErrPathOutsideArtifactDir marks a reload path outside the directory
	// of the configured artifact.
	ErrPathOutsideArtifactDir = errors.New("server: reload path outside the artifact directory")
	// ErrStoreLoading marks record mutations and snapshot triggers that
	// arrive while the durable store is still replaying its log (503: retry
	// once /readyz clears).
	ErrStoreLoading = errors.New("server: record store is still loading")
	// ErrNoDurableStore marks snapshot triggers on a server running with a
	// purely in-memory store (no -data-dir).
	ErrNoDurableStore = errors.New("server: no durable store configured")
	// ErrDurableSchemaSwap marks a refused forced schema-changing swap on a
	// server with a durable record store: the on-disk records are shaped for
	// the served schema, and silently starting an empty store would orphan
	// them. Restart with a fresh -data-dir to change schemas.
	ErrDurableSchemaSwap = errors.New("server: schema-changing swap refused with a durable record store")
	// ErrBackpressure marks a record mutation refused because the bounded
	// ingest queue is full (429: the client should back off and retry).
	// Resolves are never refused — back-pressure sheds writes, not reads.
	ErrBackpressure = errors.New("server: ingest queue is full")
)

// Config sizes the serving front end. The zero value takes the defaults.
type Config struct {
	// ModelPath, when set, is the default artifact the reload endpoint
	// re-reads when the request names no path. It also anchors the reload
	// allowlist: request-supplied paths must live in the same directory
	// (the reload endpoint is reachable by any client that can score, so
	// it must not open arbitrary server-side files). With no ModelPath,
	// path-bearing reloads are refused outright; use Swap from code.
	ModelPath string
	// Match configures the online record store behind /v1/records and
	// /v1/resolve (blocking semantics and maintenance thresholds). The
	// zero value takes the match package defaults.
	Match match.Config
	// Partitions is the record store's partition count (0 means 1):
	// records consistent-hash across this many independent match
	// partitions and every resolve scatter-gathers across all of them,
	// merging the per-partition top-k lists into one order-stable result
	// identical to a single flat store's.
	Partitions int
	// MaxPending bounds how many record mutations (adds + deletes) may be
	// in flight at once; one more is refused with ErrBackpressure (HTTP
	// 429 + Retry-After) instead of queueing without bound. Defaults to
	// 256; < 0 disables the gate.
	MaxPending int
	// Obs, when set, turns on the observability layer: per-stage and
	// per-request latency histograms and the serving debug vars register
	// on this registry (rendered by GET /metrics and, after
	// Registry.MirrorExpvar, on /debug/vars), and every request carries
	// an obs.Trace through the serving stack. nil keeps tracing off —
	// the zero-overhead mode.
	Obs *obs.Registry
	// SlowRequest, when > 0 (and Obs is set), logs a structured slog
	// line (request id, kind, per-stage breakdown) for every request
	// whose wall time crosses it.
	SlowRequest time.Duration
	// Logger receives the slow-request lines (default slog.Default()).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Partitions <= 0 {
		c.Partitions = 1
	}
	if c.MaxPending == 0 {
		c.MaxPending = 256
	}
	if c.MaxPending < 0 {
		c.MaxPending = 0
	}
	return c
}

// Server serves one hot-swappable learnrisk.Model. The model lives behind
// an atomic.Pointer: scoring paths snapshot it once per request, Swap
// publishes a replacement, and because the artifact is immutable, requests
// in flight during a swap complete on the snapshot they started with —
// zero dropped requests, no locks on the hot path.
type Server struct {
	cfg   Config
	model atomic.Pointer[learnrisk.Model]

	// store is the online record store behind /v1/records and /v1/resolve:
	// Config.Partitions match partitions, record mutations routed by
	// consistent-hashed global ID, resolves scatter-gathered across every
	// partition on the model snapshot the request loaded. It lives behind
	// its own atomic.Pointer with the same snapshot discipline as the
	// model: it survives hot-swaps that keep the schema fingerprint, and is
	// replaced by a fresh empty store when a forced swap changes the schema
	// (the stored records' layout would no longer match the served model).
	// With a data dir, cmd/serve replays in the background and installs the
	// replayed durable store over the in-memory one New built.
	store atomic.Pointer[partition.Store]

	// durablePending is the startup window where cmd/serve is still
	// replaying the data dir in the background: mutations are refused with
	// ErrStoreLoading rather than silently landing in the in-memory store
	// the replay will replace.
	durablePending atomic.Bool

	// partReasons is the per-partition readiness board (index-aligned with
	// the partitions): nil means ready, otherwise the replay phase that
	// partition is in. /readyz aggregates it — one replaying partition
	// keeps the whole server not ready, and the reason list names it.
	partReasons []atomic.Pointer[string]

	// ingestSem is the bounded ingest queue (Config.MaxPending): a record
	// mutation holds one slot for its duration, and when none is free the
	// mutation is refused with ErrBackpressure instead of piling onto the
	// partition locks. nil disables the gate.
	ingestSem chan struct{}

	// notReady carries the readiness gate's reason; nil means ready. The
	// liveness probe (/healthz) ignores it, the readiness probe (/readyz)
	// returns 503 with the reason until it clears — cmd/serve holds it
	// while warm-loading records into the store.
	notReady atomic.Pointer[string]

	// metrics is the observability surface (Config.Obs); nil disables
	// request tracing and /metrics. All its methods are nil-safe.
	metrics *Metrics

	reloadMu sync.Mutex // serializes Swap/Reload (loading is expensive)
	swaps    atomic.Int64
	served   atomic.Int64
	resolves atomic.Int64
}

// New builds a Server around an already-loaded model. The server starts
// ready; a front end that warm-loads state first marks itself with
// SetNotReady until done. New panics on construction-time programmer
// errors — a nil model, or a Config.Match whose blocking attribute
// indices fall outside the model's schema (the only invalid match
// configuration; everything else is defaulted).
func New(m *learnrisk.Model, cfg Config) *Server {
	if m == nil {
		panic("server: New needs a non-nil model")
	}
	s := &Server{cfg: cfg.withDefaults()}
	s.model.Store(m)
	ps, err := m.NewPartitionedMatchStore(s.cfg.Partitions, s.cfg.Match)
	if err != nil {
		panic("server: invalid match config: " + err.Error())
	}
	s.store.Store(ps)
	s.partReasons = make([]atomic.Pointer[string], s.cfg.Partitions)
	if s.cfg.MaxPending > 0 {
		s.ingestSem = make(chan struct{}, s.cfg.MaxPending)
	}
	if s.cfg.Obs != nil {
		s.metrics = newMetrics(s.cfg.Obs, s.cfg.SlowRequest, s.cfg.Logger)
		registerServerMetrics(s, s.cfg.Obs)
	}
	return s
}

// Metrics returns the observability surface, or nil when Config.Obs was
// not set.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Registry returns the metrics registry, or nil when Config.Obs was not
// set.
func (s *Server) Registry() *obs.Registry {
	if s.metrics == nil {
		return nil
	}
	return s.metrics.reg
}

// ObserveStage feeds one stage duration straight into its registry
// histogram, bypassing request traces — the hook for stages measured by
// background machinery (cmd/serve wires match.DurableOptions.OnStage to
// it for snapshot cut/publish). A no-op without Config.Obs.
func (s *Server) ObserveStage(stage obs.Stage, d time.Duration) {
	s.metrics.observeStage(stage, d)
}

// acquireIngest claims one bounded-queue slot for a record mutation, or
// refuses with ErrBackpressure when Config.MaxPending are already in
// flight. The queue is admission control, not a waiting line: refusing
// immediately keeps the refused request's latency flat and tells the
// client to back off, where blocking would stack every client behind the
// partition locks.
func (s *Server) acquireIngest() error {
	if s.ingestSem == nil {
		return nil
	}
	select {
	case s.ingestSem <- struct{}{}:
		return nil
	default:
		return fmt.Errorf("%w: %d record mutations already in flight", ErrBackpressure, cap(s.ingestSem))
	}
}

func (s *Server) releaseIngest() {
	if s.ingestSem != nil {
		<-s.ingestSem
	}
}

// Model returns the currently-served model snapshot.
func (s *Server) Model() *learnrisk.Model { return s.model.Load() }

// Served returns how many pairs the server has scored (single and batch).
func (s *Server) Served() int64 { return s.served.Load() }

// Swaps returns how many model hot-swaps have been published.
func (s *Server) Swaps() int64 { return s.swaps.Load() }

// Score risk-scores one pair on the current model snapshot and returns the
// verdict with that snapshot's fingerprint.
func (s *Server) Score(p learnrisk.Pair) (learnrisk.PairScore, string, error) {
	m := s.model.Load()
	score, err := m.Score(p)
	if err != nil {
		return learnrisk.PairScore{}, "", err
	}
	s.served.Add(1)
	return score, m.Fingerprint(), nil
}

// ScoreBatch risk-scores a client-assembled batch on one model snapshot and
// returns the verdicts, in input order, with that snapshot's fingerprint.
func (s *Server) ScoreBatch(pairs []learnrisk.Pair) ([]learnrisk.PairScore, string, error) {
	m := s.model.Load()
	scores, err := m.ScoreBatch(pairs)
	if err != nil {
		return nil, "", err
	}
	s.served.Add(int64(len(pairs)))
	return scores, m.Fingerprint(), nil
}

// Explain scores one pair on the current snapshot and returns the
// interpretable risk decomposition next to the verdict.
func (s *Server) Explain(p learnrisk.Pair) (learnrisk.PairScore, []string, string, error) {
	m := s.model.Load()
	score, err := m.Score(p)
	if err != nil {
		return learnrisk.PairScore{}, nil, "", err
	}
	why, err := m.ExplainPair(p)
	if err != nil {
		return learnrisk.PairScore{}, nil, "", err
	}
	s.served.Add(1)
	return score, why, m.Fingerprint(), nil
}

// Swap publishes a replacement model. Unless force is set, the new model
// must carry the same schema fingerprint as the one it replaces: a
// retrained artifact for the same workload swaps freely, while a model for
// a different schema would silently invalidate every client's pair layout
// and is refused. Requests in flight finish on the old snapshot.
//
// The online record store survives a swap that keeps the schema
// fingerprint — the indexed records are still valid probe targets for the
// retrained model. A forced swap to a different fingerprint replaces it
// with a fresh empty store: the old records were shaped for the old schema.
// With a durable store that replacement is refused (ErrDurableSchemaSwap):
// the on-disk records would be orphaned; change schemas by restarting with
// a fresh data dir.
func (s *Server) Swap(next *learnrisk.Model, force bool) error {
	if next == nil {
		return fmt.Errorf("server: refusing to swap in a nil model")
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	cur := s.model.Load()
	if !force && next.Fingerprint() != cur.Fingerprint() {
		return fmt.Errorf("%w: new model fingerprint %.12s does not match the served %.12s; a schema change needs force=true",
			ErrFingerprintConflict, next.Fingerprint(), cur.Fingerprint())
	}
	if next.Fingerprint() != cur.Fingerprint() {
		if s.store.Load().Durable() || s.durablePending.Load() {
			// The data dir holds records shaped for the served schema;
			// replacing them with a fresh empty in-memory store would orphan
			// the durable state while leaving it on disk to replay — and
			// conflict — at the next restart.
			return fmt.Errorf("%w: the data dir's records are shaped for fingerprint %.12s", ErrDurableSchemaSwap, cur.Fingerprint())
		}
		ps, err := next.NewPartitionedMatchStore(s.cfg.Partitions, s.cfg.Match)
		if err != nil {
			return fmt.Errorf("server: rebuilding the match store for the new schema: %w", err)
		}
		// Store first, model second: a Resolve racing the swap then pairs
		// the old model with the fresh store, whose records keep the new
		// schema's metric forms. The resolve refuses that pairing with an
		// error (an arity error, or, at equal arity, a store-needs error)
		// instead of scoring either model against the other's records.
		s.store.Store(ps)
	}
	s.model.Store(next)
	s.swaps.Add(1)
	return nil
}

// Store returns the current record store snapshot (replaced only by a
// forced schema-changing swap or a durable install).
func (s *Server) Store() *partition.Store { return s.store.Load() }

// SetDurablePending opens the startup window where the durable store is
// still replaying in the background: record mutations are refused with
// ErrStoreLoading (they must not land in the in-memory store the replay
// will replace), reads and scoring keep working.
func (s *Server) SetDurablePending() { s.durablePending.Store(true) }

// InstallStore publishes a replayed durable store over the in-memory one
// New built: resolves serve its records immediately, and every later
// mutation goes through the owning partition's log. The store must match
// the served schema's arity and the configured partition count.
func (s *Server) InstallStore(ps *partition.Store) error {
	if ps == nil {
		return fmt.Errorf("server: refusing to install a nil record store")
	}
	if want := s.store.Load().Arity(); ps.Arity() != want {
		return fmt.Errorf("server: record store arity %d does not match the served schema's %d", ps.Arity(), want)
	}
	if ps.Partitions() != s.cfg.Partitions {
		return fmt.Errorf("server: record store has %d partitions, the server was configured with %d", ps.Partitions(), s.cfg.Partitions)
	}
	s.store.Store(ps)
	s.durablePending.Store(false)
	return nil
}

// AddRecord stores and indexes one record in the online store, returning
// its stable ID. With a durable store the record is logged (and, under
// fsync=always, on disk) before the call returns. A full ingest queue
// refuses with ErrBackpressure.
func (s *Server) AddRecord(values []string) (uint64, error) {
	return s.addRecordTraced(values, nil)
}

func (s *Server) addRecordTraced(values []string, tr *obs.Trace) (uint64, error) {
	if err := s.acquireIngest(); err != nil {
		return 0, err
	}
	defer s.releaseIngest()
	if s.durablePending.Load() {
		return 0, fmt.Errorf("%w: the durable store is still replaying", ErrStoreLoading)
	}
	return s.store.Load().AddTraced(values, tr)
}

// DeleteRecord tombstones one record; false means the ID was unknown or
// already deleted. Durable deletes are logged before they apply. A full
// ingest queue refuses with ErrBackpressure.
func (s *Server) DeleteRecord(id uint64) (bool, error) {
	return s.deleteRecordTraced(id, nil)
}

func (s *Server) deleteRecordTraced(id uint64, tr *obs.Trace) (bool, error) {
	if err := s.acquireIngest(); err != nil {
		return false, err
	}
	defer s.releaseIngest()
	if s.durablePending.Load() {
		return false, fmt.Errorf("%w: the durable store is still replaying", ErrStoreLoading)
	}
	return s.store.Load().DeleteTraced(id, tr)
}

// TriggerSnapshot cuts a durable-store snapshot now (the POST /v1/snapshot
// admin endpoint): every partition's live record set is written and
// fsynced concurrently, and the log history it covers is truncated. It
// returns one info per partition.
func (s *Server) TriggerSnapshot() ([]match.SnapshotInfo, error) {
	if s.durablePending.Load() {
		return nil, fmt.Errorf("%w: the durable store is still replaying", ErrStoreLoading)
	}
	ps := s.store.Load()
	if !ps.Durable() {
		return nil, ErrNoDurableStore
	}
	return ps.Snapshot()
}

// Live reports the number of live records in the serving store.
func (s *Server) Live() int { return s.store.Load().Len() }

// resolveTraced finds the k best matches for a probe record among the
// store's live records on the current model snapshot, scatter-gathered
// across every partition into the same ranked slice a flat store would
// return, and the fingerprint of the model that scored them. Each result
// carries the values its verdict was computed on.
func (s *Server) resolveTraced(probe []string, k int, tr *obs.Trace) ([]learnrisk.MatchResult, string, error) {
	m := s.model.Load()
	res, err := m.ResolvePartitionedTraced(s.store.Load(), probe, k, tr)
	if err != nil {
		return nil, "", err
	}
	s.resolves.Add(1)
	return res, m.Fingerprint(), nil
}

// Resolves returns how many resolve calls the server has answered.
func (s *Server) Resolves() int64 { return s.resolves.Load() }

// SetNotReady marks the server not ready with a reason; /readyz returns
// 503 carrying it until SetReady. Liveness (/healthz) is unaffected.
func (s *Server) SetNotReady(reason string) { s.notReady.Store(&reason) }

// SetReady clears the readiness gate.
func (s *Server) SetReady() { s.notReady.Store(nil) }

// Ready reports the readiness gate and, when not ready, its reason. A
// single replaying partition keeps the whole server not ready (its probes
// would silently miss that partition's records).
func (s *Server) Ready() (bool, string) {
	if r := s.notReady.Load(); r != nil {
		return false, *r
	}
	for i := range s.partReasons {
		if r := s.partReasons[i].Load(); r != nil {
			return false, fmt.Sprintf("partition %d: %s", i, *r)
		}
	}
	return true, ""
}

// SetPartitionNotReady marks one partition's slot on the readiness board
// with the phase it is in (cmd/serve calls it from the per-partition
// replay progress callback). Out-of-range parts are ignored.
func (s *Server) SetPartitionNotReady(part int, reason string) {
	if part >= 0 && part < len(s.partReasons) {
		s.partReasons[part].Store(&reason)
	}
}

// SetPartitionReady clears one partition's readiness slot.
func (s *Server) SetPartitionReady(part int) {
	if part >= 0 && part < len(s.partReasons) {
		s.partReasons[part].Store(nil)
	}
}

// PartitionReasons snapshots the per-partition readiness board,
// index-aligned with the partitions; "" means ready. Nil when every
// partition is ready.
func (s *Server) PartitionReasons() []string {
	var out []string
	for i := range s.partReasons {
		if r := s.partReasons[i].Load(); r != nil {
			if out == nil {
				out = make([]string, len(s.partReasons))
			}
			out[i] = *r
		}
	}
	return out
}

// Reload loads the artifact at path (or the configured ModelPath when path
// is empty) and hot-swaps it in. It returns the fingerprints of the old
// and new models; the load is fingerprint-checked twice — internally by
// learnrisk.Load, and against the served schema by Swap. Paths are
// confined to the configured artifact's directory: the endpoint is open to
// every client that can score, so it must never open arbitrary files.
func (s *Server) Reload(path string, force bool) (oldFP, newFP string, err error) {
	if path == "" {
		path = s.cfg.ModelPath
		if path == "" {
			return "", "", fmt.Errorf("%w: the reload request named none and the server was started without one", ErrNoArtifactPath)
		}
	} else if err := s.checkReloadPath(path); err != nil {
		return "", "", err
	}
	next, err := learnrisk.LoadFile(path)
	if err != nil {
		return "", "", err
	}
	oldFP = s.model.Load().Fingerprint()
	if err := s.Swap(next, force); err != nil {
		return "", "", err
	}
	return oldFP, next.Fingerprint(), nil
}

// checkReloadPath confines request-supplied reload paths to the configured
// artifact's directory (symlink-resolved, so a link inside the directory
// cannot point the load elsewhere). With no configured artifact there is
// no trusted directory and every request-supplied path is refused.
func (s *Server) checkReloadPath(path string) error {
	if s.cfg.ModelPath == "" {
		return fmt.Errorf("%w: the server was started without an artifact, so reload accepts no request-supplied paths", ErrPathOutsideArtifactDir)
	}
	dir, err := filepath.Abs(filepath.Dir(s.cfg.ModelPath))
	if err != nil {
		return err
	}
	if resolved, err := filepath.EvalSymlinks(dir); err == nil {
		dir = resolved
	}
	abs, err := filepath.Abs(path)
	if err != nil {
		return err
	}
	if resolved, err := filepath.EvalSymlinks(abs); err == nil {
		abs = resolved
	}
	if filepath.Dir(abs) != dir {
		return fmt.Errorf("%w: %q is not in %q", ErrPathOutsideArtifactDir, path, dir)
	}
	return nil
}
