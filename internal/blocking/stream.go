package blocking

import (
	"iter"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/par"
)

// CandidateSeq is the lazy form of Candidates: it returns an iterator that
// emits the exact same candidate pairs in the exact same order, without
// ever materializing the pair list. A million-pair workload costs the
// inverted index plus a bounded number of in-flight scan chunks, not a
// pair slice — the bounded-memory batch path the feature-store streamer
// and the facade's Train/Run/Evaluate build on.
//
// The scan is pipelined: worker goroutines claim fixed-size left-table
// chunks from an atomic counter and scan them against the shared index
// concurrently, while the iterator drains the chunks strictly in order, so
// emission order matches Candidates' chunk concatenation. A semaphore
// bounds how many scanned-but-undrained chunks may exist at once, which is
// what bounds memory under a slow consumer. Breaking out of the iteration
// early stops the workers promptly and leaks no goroutines; the index is
// built once and reused if the sequence is iterated again.
//
// The pair set and order are pinned to Candidates (which stays the test
// oracle) by construction: both paths scan through the same candidateIndex
// and the same per-record scanRecord.
func CandidateSeq(left, right *dataset.Table, cfg Config) iter.Seq[dataset.Pair] {
	cfg = cfg.Normalize(len(left.Schema.Attrs))
	var once sync.Once
	var ix *candidateIndex
	return func(yield func(dataset.Pair) bool) {
		nLeft := len(left.Records)
		if nLeft == 0 {
			return
		}
		once.Do(func() { ix = buildCandidateIndex(right, cfg.Attrs) })

		nChunks := par.NumChunks(nLeft, blockChunk)
		workers := runtime.GOMAXPROCS(0)
		if workers > nChunks {
			workers = nChunks
		}
		// Each chunk gets its own one-slot result channel (single producer,
		// so sends never block) and the drain loop takes them in ascending
		// chunk order. The ticket channel is the lookahead bound: a worker
		// must hold a ticket to claim a chunk, and the consumer returns the
		// ticket only when that chunk has been drained.
		results := make([]chan []dataset.Pair, nChunks)
		for c := range results {
			results[c] = make(chan []dataset.Pair, 1)
		}
		tickets := make(chan struct{}, 2*workers)
		stop := make(chan struct{})
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ss := ix.newScratch()
				for {
					select {
					case <-stop:
						return
					case tickets <- struct{}{}:
					}
					c := int(next.Add(1)) - 1
					if c >= nChunks {
						return
					}
					lo := c * blockChunk
					hi := lo + blockChunk
					if hi > nLeft {
						hi = nLeft
					}
					var out []dataset.Pair
					for li := lo; li < hi; li++ {
						out = ix.scanRecord(ss, left.Records[li], li, cfg, out)
					}
					select {
					case results[c] <- out:
					case <-stop:
						return
					}
				}
			}()
		}
		// Closing stop on every exit path (early break included) unblocks
		// all workers; the Wait makes "the iterator returned" mean "no scan
		// goroutine is left running".
		defer func() {
			close(stop)
			wg.Wait()
		}()
		for c := 0; c < nChunks; c++ {
			out := <-results[c]
			<-tickets
			for _, p := range out {
				if !yield(p) {
					return
				}
			}
		}
	}
}
