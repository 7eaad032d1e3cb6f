package learnrisk_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/blocking"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/featstore"
	"repro/internal/metrics"
)

// The batch-pipeline benchmarks compare the streamed blocking -> featstore
// path against the materialized one on a 100k+-record workload (AB at
// scale 2: ~106k records, ~219k candidate pairs): peak heap growth (peakB)
// and wall time for the same fold over every metric row. Run them with:
//
//	go test -run '^$' -bench BatchPipeline -benchmem -benchtime 3x .
var (
	batchOnce        sync.Once
	batchLeft        *dataset.Table
	batchRight       *dataset.Table
	batchCat         *metrics.Catalog
	batchFoldSink    float64
	batchMaterialSum float64
	batchStreamSum   float64
)

func batchSetup(b *testing.B) {
	b.Helper()
	batchOnce.Do(func() {
		w := datagen.MustGenerate(datagen.AB(7), 2.0)
		batchLeft, batchRight = w.Left, w.Right
		batchCat = w.Left.Schema.Catalog(w.Left, w.Right)
	})
}

// heapWatcher samples runtime.ReadMemStats on a short ticker and keeps the
// maximum HeapAlloc it sees — the peak live heap during the watched span,
// which total-bytes-allocated (B/op) cannot show.
type heapWatcher struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func watchHeap() *heapWatcher {
	w := &heapWatcher{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		var ms runtime.MemStats
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > w.peak {
					w.peak = ms.HeapAlloc
				}
			}
		}
	}()
	return w
}

// Peak stops the watcher and returns the peak heap growth over base.
func (w *heapWatcher) Peak(base uint64) uint64 {
	close(w.stop)
	<-w.done
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > w.peak {
		w.peak = ms.HeapAlloc
	}
	if w.peak <= base {
		return 0
	}
	return w.peak - base
}

func heapBase() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func BenchmarkBatchPipelineMaterialized(b *testing.B) {
	batchSetup(b)
	b.ReportAllocs()
	var peak uint64
	npairs := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := heapBase()
		hw := watchHeap()
		pairs := blocking.Candidates(batchLeft, batchRight, blocking.Config{})
		w := &dataset.Workload{Name: "bench", Left: batchLeft, Right: batchRight, Pairs: pairs}
		store := featstore.New(w, batchCat)
		idx := make([]int, len(pairs))
		for j := range idx {
			idx[j] = j
		}
		sum := 0.0
		for _, row := range store.Rows(idx) {
			for _, v := range row {
				sum += v
			}
		}
		if p := hw.Peak(base); p > peak {
			peak = p
		}
		batchFoldSink, batchMaterialSum, npairs = sum, sum, len(pairs)
	}
	b.StopTimer()
	b.ReportMetric(float64(peak), "peakB")
	b.ReportMetric(float64(npairs), "pairs")
}

func BenchmarkBatchPipelineStreamed(b *testing.B) {
	batchSetup(b)
	b.ReportAllocs()
	var peak uint64
	npairs := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := heapBase()
		hw := watchHeap()
		st := featstore.NewStreamer(batchCat, batchLeft, batchRight, 0)
		sum := 0.0
		n, err := st.Run(blocking.CandidateSeq(batchLeft, batchRight, blocking.Config{}), nil,
			func(_ int, _ []dataset.Pair, rows [][]float64) error {
				for _, row := range rows {
					for _, v := range row {
						sum += v
					}
				}
				return nil
			})
		if err != nil {
			b.Fatal(err)
		}
		if p := hw.Peak(base); p > peak {
			peak = p
		}
		batchFoldSink, batchStreamSum, npairs = sum, sum, n
	}
	b.StopTimer()
	b.ReportMetric(float64(peak), "peakB")
	b.ReportMetric(float64(npairs), "pairs")
}

// TestBatchPipelineBenchesAgree keeps the two benchmark bodies honest: the
// streamed fold visits the exact pair set and row values the materialized
// fold does (on a small workload, so plain `go test` stays fast).
func TestBatchPipelineBenchesAgree(t *testing.T) {
	w := datagen.MustGenerate(datagen.AB(7), 0.05)
	cat := w.Left.Schema.Catalog(w.Left, w.Right)

	pairs := blocking.Candidates(w.Left, w.Right, blocking.Config{})
	mw := &dataset.Workload{Name: "agree", Left: w.Left, Right: w.Right, Pairs: pairs}
	store := featstore.New(mw, cat)
	idx := make([]int, len(pairs))
	for j := range idx {
		idx[j] = j
	}
	matSum := 0.0
	for _, row := range store.Rows(idx) {
		for _, v := range row {
			matSum += v
		}
	}

	st := featstore.NewStreamer(cat, w.Left, w.Right, 64)
	strSum := 0.0
	n, err := st.Run(blocking.CandidateSeq(w.Left, w.Right, blocking.Config{}), nil,
		func(_ int, _ []dataset.Pair, rows [][]float64) error {
			for _, row := range rows {
				for _, v := range row {
					strSum += v
				}
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(pairs) {
		t.Fatalf("streamed %d pairs, materialized %d", n, len(pairs))
	}
	if matSum != strSum {
		t.Fatalf("fold sums diverge: materialized %v, streamed %v", matSum, strSum)
	}
}
