// Serving-path benchmarks: steady-state Score, ScoreBatch, ExplainPair and
// candidate blocking — the hot path of the HTTP service (internal/server)
// and of bring-your-own-table workloads. Run them with:
//
//	go test -run '^$' -bench Serve -benchmem .
package learnrisk_test

import (
	"context"
	"sync"
	"testing"

	learnrisk "repro"
	"repro/internal/blocking"
	"repro/internal/datagen"
	"repro/internal/dataset"
)

// servingBenchBatch is the batch size of the ScoreBatch bench: a
// client-assembled POST /v1/score/batch of 64 pairs.
const servingBenchBatch = 64

var (
	servingOnce  sync.Once
	servingModel *learnrisk.Model
	servingPairs []learnrisk.Pair
	servingErr   error
)

// servingSetup trains one model for all serving benches and materializes a
// pool of raw-value pairs shaped like serving traffic (fresh pairs, values
// only — no ground truth, no store).
func servingSetup(b *testing.B) (*learnrisk.Model, []learnrisk.Pair) {
	b.Helper()
	servingOnce.Do(func() {
		w, err := learnrisk.Generate("AB", 0.05, 7)
		if err != nil {
			servingErr = err
			return
		}
		m, err := learnrisk.Train(context.Background(), w, learnrisk.Options{Seed: 7})
		if err != nil {
			servingErr = err
			return
		}
		n := w.Size()
		if n > 512 {
			n = 512
		}
		pairs := make([]learnrisk.Pair, n)
		for i := 0; i < n; i++ {
			l, r := w.PairValues(i)
			pairs[i] = learnrisk.Pair{Left: l, Right: r}
		}
		servingModel, servingPairs = m, pairs
	})
	if servingErr != nil {
		b.Fatal(servingErr)
	}
	return servingModel, servingPairs
}

// BenchmarkServeScore measures steady-state single-pair scoring: the unit
// of work behind every POST /v1/score request.
func BenchmarkServeScore(b *testing.B) {
	m, pairs := servingSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Score(pairs[i%len(pairs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeScoreBatch measures batch scoring of servingBenchBatch
// pairs; ns/pair is the number to compare across PRs.
func BenchmarkServeScoreBatch(b *testing.B) {
	m, pairs := servingSetup(b)
	batch := pairs[:servingBenchBatch]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.ScoreBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*servingBenchBatch), "ns/pair")
}

// BenchmarkServeExplainPair measures the explanation path of POST
// /v1/explain (score + decomposition).
func BenchmarkServeExplainPair(b *testing.B) {
	m, pairs := servingSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.ExplainPair(pairs[i%len(pairs)]); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	blockingOnce  sync.Once
	blockingLeft  *dataset.Table
	blockingRight *dataset.Table
	blockingErr   error
)

// blockingSetup generates one mid-sized table pair for the blocking bench.
func blockingSetup(b *testing.B) (*dataset.Table, *dataset.Table) {
	b.Helper()
	blockingOnce.Do(func() {
		spec, ok := datagen.ByName("AB", 11)
		if !ok {
			b.Fatal("datagen: unknown profile AB")
		}
		w, err := datagen.Generate(spec, 0.4)
		if err != nil {
			blockingErr = err
			return
		}
		blockingLeft, blockingRight = w.Left, w.Right
	})
	if blockingErr != nil {
		b.Fatal(blockingErr)
	}
	return blockingLeft, blockingRight
}

// BenchmarkServeBlocking measures token-blocking candidate generation — the
// entry cost of every bring-your-own-table workload (LoadCSV without a
// pairs file).
func BenchmarkServeBlocking(b *testing.B) {
	left, right := blockingSetup(b)
	var pairs int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := blocking.Candidates(left, right, blocking.Config{})
		pairs = len(got)
	}
	b.ReportMetric(float64(pairs), "pairs")
}
