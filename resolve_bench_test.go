// Online-resolve benchmarks: a warm incremental index probed per record vs
// the naive alternative — rebuilding batch blocking from scratch for every
// probe — at 10k+ stored records, plus the warm path with stage tracing on.
// They report resolve latency (mean, p50, p99) and candidates per probe;
// compare the warm and rebuild ns/op for the speedup, and the untraced and
// traced warm ns/op for the tracing cost. Run them with:
//
//	go test -run '^$' -bench OnlineResolve -benchmem .
package learnrisk_test

import (
	"context"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	learnrisk "repro"
	"repro/internal/blocking"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/match"
	"repro/internal/obs"
)

const resolveBenchK = 10

var (
	resolveOnce   sync.Once
	resolveModel  *learnrisk.Model
	resolveStore  *match.Store
	resolveRight  *dataset.Table
	resolveProbes [][]string
	resolveErr    error
)

// resolveBenchSetup trains one small model and indexes a 10k+-record right
// table (DS profile at scale 0.25: 10354 records) into a warm match store.
// Probes are the corresponding left-table records.
func resolveBenchSetup(b *testing.B) (*learnrisk.Model, *match.Store) {
	b.Helper()
	resolveOnce.Do(func() {
		w, err := learnrisk.Generate("DS", 0.05, 7)
		if err != nil {
			resolveErr = err
			return
		}
		m, err := learnrisk.Train(context.Background(), w, learnrisk.Options{Seed: 7})
		if err != nil {
			resolveErr = err
			return
		}
		spec, _ := datagen.ByName("DS", 11)
		big, err := datagen.Generate(spec, 0.25)
		if err != nil {
			resolveErr = err
			return
		}
		st, err := m.NewMatchStore(match.Config{})
		if err != nil {
			resolveErr = err
			return
		}
		for _, r := range big.Right.Records {
			if _, err := st.Add(r.Values); err != nil {
				resolveErr = err
				return
			}
		}
		probes := make([][]string, len(big.Left.Records))
		for i, r := range big.Left.Records {
			probes[i] = r.Values
		}
		resolveModel, resolveStore, resolveRight, resolveProbes = m, st, big.Right, probes
	})
	if resolveErr != nil {
		b.Fatal(resolveErr)
	}
	return resolveModel, resolveStore
}

// reportLatencies turns per-op samples into p50/p99 metrics (microseconds).
func reportLatencies(b *testing.B, samples []time.Duration) {
	if len(samples) == 0 {
		return
	}
	slices.Sort(samples)
	p := func(q float64) float64 {
		i := int(q * float64(len(samples)-1))
		return float64(samples[i].Nanoseconds()) / 1e3
	}
	b.ReportMetric(p(0.50), "p50-us")
	b.ReportMetric(p(0.99), "p99-us")
}

// BenchmarkOnlineResolveWarm10k is the production shape: the index is warm
// and each probe pays only its posting-list walk plus candidate scoring.
func BenchmarkOnlineResolveWarm10k(b *testing.B) {
	benchResolveWarm(b, nil)
}

// BenchmarkOnlineResolveWarm10kTraced is the same loop with a live trace:
// clock reads around tokenize/score/merge and atomic stage accumulation.
// A nil trace's timing branches return before reading the clock, so the
// ns/op gap between the two is what tracing costs.
func BenchmarkOnlineResolveWarm10kTraced(b *testing.B) {
	tr := obs.NewTrace(1)
	benchResolveWarm(b, tr)
	if tr.Total() <= 0 {
		b.Fatal("trace recorded nothing — the traced path was not exercised")
	}
}

// benchResolveWarm resolves the probes in turn against the warm store,
// threading tr through ResolveTraced (Resolve is ResolveTraced with a nil
// trace).
func benchResolveWarm(b *testing.B, tr *obs.Trace) {
	m, st := resolveBenchSetup(b)
	probes := resolveProbes
	samples := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		_, err := m.ResolveTraced(st, probes[i%len(probes)], resolveBenchK, tr)
		samples = append(samples, time.Since(t0))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportLatencies(b, samples)
	b.ReportMetric(float64(st.Stats().Candidates)/float64(st.Stats().Probes), "cand/probe")
}

// BenchmarkOnlineResolveRebuildPerProbe10k is the naive baseline the
// incremental index replaces: every probe rebuilds batch blocking from
// scratch over all stored records (blocking.Candidates of a one-record
// left table), then scores and ranks the same candidates the same way.
func BenchmarkOnlineResolveRebuildPerProbe10k(b *testing.B) {
	m, _ := resolveBenchSetup(b)
	right := resolveRight
	probes := resolveProbes
	schema := right.Schema
	samples := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probe := probes[i%len(probes)]
		t0 := time.Now()
		left := &dataset.Table{Schema: schema, Records: []dataset.Record{{ID: "probe", Values: probe}}}
		pairs := blocking.Candidates(left, right, blocking.Config{})
		type scored struct {
			idx int
			sc  learnrisk.PairScore
		}
		results := make([]scored, 0, len(pairs))
		for _, p := range pairs {
			sc, err := m.Score(learnrisk.Pair{Left: probe, Right: right.Records[p.Right].Values})
			if err != nil {
				b.Fatal(err)
			}
			results = append(results, scored{p.Right, sc})
		}
		sort.Slice(results, func(a, c int) bool {
			if results[a].sc.Prob != results[c].sc.Prob {
				return results[a].sc.Prob > results[c].sc.Prob
			}
			return results[a].idx < results[c].idx
		})
		if len(results) > resolveBenchK {
			results = results[:resolveBenchK]
		}
		samples = append(samples, time.Since(t0))
	}
	b.StopTimer()
	reportLatencies(b, samples)
}
