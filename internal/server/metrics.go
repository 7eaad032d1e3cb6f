package server

import (
	"context"
	"log/slog"
	"sync/atomic"
	"time"

	"repro/internal/match"
	"repro/internal/obs"
)

// reqKind buckets requests for the request-level latency histograms.
type reqKind uint8

const (
	reqScore reqKind = iota
	reqResolve
	reqIngest
	numReqKinds
)

func (k reqKind) String() string {
	switch k {
	case reqScore:
		return "score"
	case reqResolve:
		return "resolve"
	default:
		return "ingest"
	}
}

// Metrics is the server's observability surface: one histogram per trace
// stage, one per request kind, and the slow-request log. Built only when
// Config.Obs is set; a nil *Metrics disables all of it (every method is
// nil-safe), which is the zero-overhead mode the tracing-off benchmarks
// pin.
type Metrics struct {
	reg       *obs.Registry
	stage     [obs.NumStages]*obs.Histogram
	req       [numReqKinds]*obs.Histogram
	slowTotal *obs.Counter
	reqSeq    atomic.Uint64
	slow      time.Duration
	log       *slog.Logger
}

func newMetrics(reg *obs.Registry, slow time.Duration, logger *slog.Logger) *Metrics {
	if logger == nil {
		logger = slog.Default()
	}
	m := &Metrics{reg: reg, slow: slow, log: logger}
	// One histogram per trace stage, names locked to Stage.String() (the
	// test cross-checks); literal so metriclint can see them.
	m.stage[obs.StageProbeTokenize] = reg.Histogram("stage_probe_tokenize_ns")
	m.stage[obs.StageScore] = reg.Histogram("stage_score_ns")
	m.stage[obs.StageScatter] = reg.Histogram("stage_scatter_ns")
	m.stage[obs.StageScatterSlowest] = reg.Histogram("stage_scatter_slowest_ns")
	m.stage[obs.StageTopKMerge] = reg.Histogram("stage_topk_merge_ns")
	m.stage[obs.StageWALAppend] = reg.Histogram("stage_wal_append_ns")
	m.stage[obs.StageWALFsync] = reg.Histogram("stage_wal_fsync_ns")
	m.stage[obs.StageStoreApply] = reg.Histogram("stage_store_apply_ns")
	m.stage[obs.StageSnapshotCut] = reg.Histogram("stage_snapshot_cut_ns")
	m.stage[obs.StageSnapshotPublish] = reg.Histogram("stage_snapshot_publish_ns")
	m.req[reqScore] = reg.Histogram("request_score_ns")
	m.req[reqResolve] = reg.Histogram("request_resolve_ns")
	m.req[reqIngest] = reg.Histogram("request_ingest_ns")
	m.slowTotal = reg.Counter("slow_requests_total")
	return m
}

// begin starts a request trace with a fresh request id, or nil when
// metrics are disabled (nil m) — the trace pointer then threads through
// the stack as a no-op.
func (m *Metrics) begin() *obs.Trace {
	if m == nil {
		return nil
	}
	return obs.NewTrace(m.reqSeq.Add(1))
}

// finish flushes a completed request's trace into the stage and
// request-kind histograms and emits the structured slow-request log line
// when the total crossed the -slow-request threshold. Nil-safe on both m
// and tr.
func (m *Metrics) finish(kind reqKind, tr *obs.Trace) {
	if m == nil || tr == nil {
		return
	}
	total := tr.Total()
	m.req[kind].Observe(int64(total))
	tr.Each(func(s obs.Stage, d time.Duration) {
		m.stage[s].Observe(int64(d))
	})
	if m.slow <= 0 || total < m.slow {
		return
	}
	m.slowTotal.Inc()
	attrs := make([]slog.Attr, 0, obs.NumStages+5)
	attrs = append(attrs,
		slog.Uint64("request_id", tr.ID()),
		slog.String("kind", kind.String()),
		slog.Int64("total_ns", int64(total)),
	)
	if part, d := tr.Slowest(); d > 0 {
		attrs = append(attrs, slog.Int("slowest_partition", part))
	}
	tr.Each(func(s obs.Stage, d time.Duration) {
		attrs = append(attrs, slog.Int64(s.String()+"_ns", int64(d)))
	})
	m.log.LogAttrs(context.Background(), slog.LevelWarn, "slow request", attrs...)
}

// observeStage feeds one stage duration straight into its histogram —
// the path for stages with no request to attach to (background snapshot
// cut/publish via match.DurableOptions.OnStage). Nil-safe.
func (m *Metrics) observeStage(stage obs.Stage, d time.Duration) {
	if m == nil || int(stage) >= obs.NumStages {
		return
	}
	m.stage[stage].Observe(int64(d))
}

// registerServerMetrics migrates the serving debug vars (previously
// published directly onto expvar by cmd/serve) onto the registry, names
// and layouts unchanged: Registry.MirrorExpvar reproduces the exact
// /debug/vars surface, and /metrics flattens the same trees into
// Prometheus samples.
func registerServerMetrics(s *Server, reg *obs.Registry) {
	reg.Func("served_pairs", func() any { return s.Served() })
	reg.Func("model_swaps", func() any { return s.Swaps() })

	// Match-store counters as one tree, summed over the partitions: one
	// Stats() snapshot per partition per scrape (one read lock each),
	// re-read from the current store so the counters follow a forced
	// schema-changing swap. Every resolve probes each partition once, so
	// probes count partition legs, and a token indexed in several
	// partitions counts once per partition. candidates is the raw count
	// summed over the legs: Δcandidates/Δresolves between two scrapes is
	// the candidates ranked per resolve over that window.
	reg.Func("match_store", func() any {
		var st match.Stats
		for _, p := range s.Store().PartitionStats() {
			st.Live += p.Live
			st.Added += p.Added
			st.Deleted += p.Deleted
			st.Tokens += p.Tokens
			st.Tombstones += p.Tombstones
			st.Compactions += p.Compactions
			st.Probes += p.Probes
			st.Candidates += p.Candidates
		}
		mean := 0.0
		if st.Probes > 0 {
			mean = float64(st.Candidates) / float64(st.Probes)
		}
		return map[string]any{
			"records_live":              st.Live,
			"records_indexed":           st.Added,
			"records_deleted":           st.Deleted,
			"tokens":                    st.Tokens,
			"tombstones":                st.Tombstones,
			"compactions":               st.Compactions,
			"probes":                    st.Probes,
			"candidates":                st.Candidates,
			"resolves":                  s.Resolves(),
			"mean_candidates_per_probe": mean,
		}
	})

	// Scatter-gather router counters.
	reg.Func("partition_stats", func() any {
		ps := s.Store()
		st := ps.Stats()
		return map[string]any{
			"partitions":    st.Partitions,
			"records":       st.Records,
			"probes":        st.Probes,
			"pruned_tokens": st.PrunedTokens,
			"durable":       ps.Durable(),
			"next_id":       ps.NextID(),
		}
	})

	// Durability counters, aggregated over the partitions from one
	// DurableStats sweep each per scrape. Registered even on an in-memory
	// server (as {"enabled": false}) so dashboards can tell "no
	// durability" from "metric missing".
	reg.Func("wal_stats", func() any {
		parts := s.Store().DurableStats()
		if parts == nil {
			return map[string]any{"enabled": false}
		}
		st := foldDurable(parts)
		return map[string]any{
			"enabled":       true,
			"segment_seq":   st.WALSeq,
			"segment_bytes": st.WALSegmentBytes,
			"appends":       st.WALAppends,
			"bytes":         st.WALBytes,
			"syncs":         st.WALSyncs,
			"tail_ops":      st.TailOps,
		}
	})
	reg.Func("snapshot_stats", func() any {
		parts := s.Store().DurableStats()
		if parts == nil {
			return map[string]any{"enabled": false}
		}
		st := foldDurable(parts)
		return map[string]any{
			"enabled":             true,
			"snapshots":           st.Snapshots,
			"last_seq":            st.SnapshotSeq,
			"last_records":        st.SnapshotRecords,
			"last_bytes":          st.SnapshotBytes,
			"last_millis":         st.SnapshotMillis,
			"replay_tail_frames":  st.Replay.TailFrames,
			"replay_snapshot_rec": st.Replay.SnapshotRecords,
			"replay_torn_tail":    st.Replay.TornTail,
			"replay_millis":       st.Replay.Duration.Milliseconds(),
		}
	})
}

// foldDurable aggregates the partitions' durability counters the way the
// snapshot endpoint aggregates a snapshot: counts and bytes summed,
// sequences and durations the maximum (partitions log, snapshot and replay
// concurrently), and a torn tail in any partition reported.
func foldDurable(parts []match.DurableStats) match.DurableStats {
	var st match.DurableStats
	for _, p := range parts {
		st.WALSeq = max(st.WALSeq, p.WALSeq)
		st.WALSegmentBytes += p.WALSegmentBytes
		st.WALAppends += p.WALAppends
		st.WALBytes += p.WALBytes
		st.WALSyncs += p.WALSyncs
		st.TailOps += p.TailOps
		st.Snapshots += p.Snapshots
		st.SnapshotSeq = max(st.SnapshotSeq, p.SnapshotSeq)
		st.SnapshotRecords += p.SnapshotRecords
		st.SnapshotBytes += p.SnapshotBytes
		st.SnapshotMillis = max(st.SnapshotMillis, p.SnapshotMillis)
		st.Replay.TailFrames += p.Replay.TailFrames
		st.Replay.SnapshotRecords += p.Replay.SnapshotRecords
		st.Replay.TornTail = st.Replay.TornTail || p.Replay.TornTail
		st.Replay.Duration = max(st.Replay.Duration, p.Replay.Duration)
	}
	return st
}
