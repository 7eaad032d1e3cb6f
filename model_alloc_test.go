//go:build !race

package learnrisk

import (
	"testing"

	"repro/internal/match"
)

// Allocation-regression guards for the serving hot path (run by `make
// tier1` via `make allocs` / `make test`). The contracts:
//
//   - steady-state Model.Score: 0 allocs/op — the pooled scoreScratch
//     absorbs every buffer the pair evaluation touches;
//   - steady-state Model.ScoreBatch: a small per-call bound that does NOT
//     grow with the batch size (the result slice plus the internal/par
//     chunk dispatch), zero allocations per pair;
//   - steady-state flat Model.Resolve: 1 alloc/op, its result slice,
//     however many candidates the probe ranks.
//
// testing.AllocsPerRun pins GOMAXPROCS to 1 for the measurement, which
// makes the ScoreBatch bound deterministic (no worker goroutine spawns);
// the parallel path's extra cost is O(workers) goroutines per call, also
// independent of the batch size.
//
// The file builds only without -race: the race detector makes sync.Pool
// drop pooled values at random, so the pooled scratch is rebuilt and the
// counts mean nothing there.

// scoreBatchAllocBound is the documented per-call allocation budget of
// ScoreBatch at GOMAXPROCS=1: the result slice, the chunk closure, and
// pool bookkeeping. Raising it requires a PERFORMANCE.md update.
const scoreBatchAllocBound = 8

func allocModelAndPairs(t *testing.T) (*Model, []Pair) {
	t.Helper()
	w, m := trainedModel(t)
	n := w.Size()
	if n > 64 {
		n = 64
	}
	pairs := make([]Pair, n)
	for i := 0; i < n; i++ {
		l, r := w.PairValues(i)
		pairs[i] = Pair{Left: l, Right: r}
	}
	return m, pairs
}

func TestScoreSteadyStateAllocs(t *testing.T) {
	m, pairs := allocModelAndPairs(t)
	for _, p := range pairs { // warm the pooled scratch buffers
		if _, err := m.Score(p); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := m.Score(pairs[0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Score allocates %v/op, want 0", allocs)
	}
	// Across distinct pairs too (no side-cache crutch).
	allocs = testing.AllocsPerRun(100, func() {
		for _, p := range pairs {
			if _, err := m.Score(p); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Score over %d distinct pairs allocates %v per cycle, want 0", len(pairs), allocs)
	}
}

func TestScoreBatchSteadyStateAllocs(t *testing.T) {
	m, pairs := allocModelAndPairs(t)
	if _, err := m.ScoreBatch(pairs); err != nil { // warm
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := m.ScoreBatch(pairs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > scoreBatchAllocBound {
		t.Fatalf("steady-state ScoreBatch(%d pairs) allocates %v/call, bound %d", len(pairs), allocs, scoreBatchAllocBound)
	}
	// The bound must not scale with batch size: double the batch, same cap.
	double := append(append([]Pair(nil), pairs...), pairs...)
	if _, err := m.ScoreBatch(double); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if _, err := m.ScoreBatch(double); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > scoreBatchAllocBound {
		t.Fatalf("steady-state ScoreBatch(%d pairs) allocates %v/call, bound %d", len(double), allocs, scoreBatchAllocBound)
	}
}

// resolveAllocProbes is how many probes TestResolveSteadyStateAllocs
// resolves per cycle; each ranks between 300 and 490 candidates.
const resolveAllocProbes = 4

// TestResolveSteadyStateAllocs pins the flat resolve path: once the pooled
// scratch has grown, Resolve allocates only its result slice. Neither the
// ranking pass over hundreds of candidates nor the survivors' verdicts may
// allocate per candidate. The partitioned path is not pinned: its count
// moves with pool refills under AllocsPerRun.
func TestResolveSteadyStateAllocs(t *testing.T) {
	w, err := Generate("AB", 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Train(t.Context(), w, Options{RiskEpochs: 50, ClassifierEpochs: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.NewMatchStore(match.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range w.inner.Right.Records {
		if _, err := st.Add(r.Values); err != nil {
			t.Fatal(err)
		}
	}
	var probes [][]string
	var ps match.ProbeScratch
	for _, r := range w.inner.Left.Records {
		cands, err := st.AppendCandidates(nil, r.Values, &ps, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) >= 300 && len(cands) <= 490 {
			probes = append(probes, r.Values)
		}
		if len(probes) == resolveAllocProbes {
			break
		}
	}
	if len(probes) < resolveAllocProbes {
		t.Fatalf("found %d probes with 300-490 candidates, want %d", len(probes), resolveAllocProbes)
	}
	resolveAll := func() {
		for _, p := range probes {
			res, err := m.Resolve(st, p, 5)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != 5 {
				t.Fatalf("resolve returned %d results, want 5", len(res))
			}
		}
	}
	resolveAll() // warm the pooled scratch buffers
	if allocs := testing.AllocsPerRun(20, resolveAll); allocs != resolveAllocProbes {
		t.Fatalf("steady-state Resolve over %d probes allocates %v per cycle, want %d (the result slices)",
			resolveAllocProbes, allocs, resolveAllocProbes)
	}
}
