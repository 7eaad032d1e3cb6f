package server

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	learnrisk "repro"
)

// TestPooledScratchConcurrencyBitIdentical is the pooled-scratch race
// gate (run under -race via `make race`): Server.Score, Server.ScoreBatch
// and Server.Explain hammered concurrently, so goroutines share the served
// model's scratch pool, must stay bit-identical to a fresh, unpooled
// model's serial answers. The reference model is a fresh Load of the
// serving artifact whose pool has never been warmed beyond the serial
// reference pass, so any cross-goroutine scratch corruption (stale
// buffers, shared bitsets, aliased rows) shows up as a score divergence
// or a race report.
func TestPooledScratchConcurrencyBitIdentical(t *testing.T) {
	w, m := trainedModelAB(t)

	// Fresh unpooled reference: round-trip the artifact and score
	// serially.
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ref, err := learnrisk.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	n := w.Size()
	if n > 48 {
		n = 48
	}
	pairs := make([]learnrisk.Pair, n)
	want := make([]learnrisk.PairScore, n)
	wantWhy := make([][]string, n)
	for i := 0; i < n; i++ {
		l, r := w.PairValues(i)
		pairs[i] = learnrisk.Pair{Left: l, Right: r}
		s, err := ref.Score(pairs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = s
		why, err := ref.ExplainPair(pairs[i])
		if err != nil {
			t.Fatal(err)
		}
		wantWhy[i] = why
	}

	srv := New(m, Config{})

	const goroutines = 12
	const rounds = 30
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				i := (g*rounds + round) % n
				switch g % 3 {
				case 0: // single pairs
					got, _, err := srv.Score(pairs[i])
					if err != nil {
						errs <- err
						return
					}
					if got != want[i] {
						errs <- fmt.Errorf("Score(pair %d) = %+v, fresh model %+v", i, got, want[i])
						return
					}
				case 1: // client-assembled batches (rotating windows)
					lo := i
					hi := lo + 9
					if hi > n {
						hi = n
					}
					got, _, err := srv.ScoreBatch(pairs[lo:hi])
					if err != nil {
						errs <- err
						return
					}
					for k := range got {
						if got[k] != want[lo+k] {
							errs <- fmt.Errorf("ScoreBatch pair %d = %+v, fresh model %+v", lo+k, got[k], want[lo+k])
							return
						}
					}
				default: // explanations
					got, why, _, err := srv.Explain(pairs[i])
					if err != nil {
						errs <- err
						return
					}
					if got != want[i] {
						errs <- fmt.Errorf("Explain score(pair %d) = %+v, fresh model %+v", i, got, want[i])
						return
					}
					if len(why) != len(wantWhy[i]) {
						errs <- fmt.Errorf("Explain(pair %d): %d lines, fresh model %d", i, len(why), len(wantWhy[i]))
						return
					}
					for k := range why {
						if why[k] != wantWhy[i][k] {
							errs <- fmt.Errorf("Explain(pair %d) line %d diverged:\n%s\n%s", i, k, why[k], wantWhy[i][k])
							return
						}
					}
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
