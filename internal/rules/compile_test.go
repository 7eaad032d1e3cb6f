package rules

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// randomRules builds a deterministic pseudo-random rule collection over the
// given column width, including empty-conjunction and shared-predicate
// cases.
func randomRules(rng *rand.Rand, n, width int) []Rule {
	rs := make([]Rule, n)
	for i := range rs {
		np := rng.Intn(4) // 0..3 predicates; 0 exercises the vacuous rule
		preds := make([]Predicate, np)
		for j := range preds {
			preds[j] = Predicate{
				Metric:    rng.Intn(width),
				Op:        Op(rng.Intn(2)),
				Threshold: float64(rng.Intn(8)) / 8.0, // repeats force predicate sharing
			}
		}
		rs[i] = Rule{Predicates: preds, Match: rng.Intn(2) == 0, Support: rng.Intn(100)}
	}
	return rs
}

func randomMatrix(rng *rand.Rand, rows, width int) [][]float64 {
	X := make([][]float64, rows)
	for i := range X {
		X[i] = make([]float64, width)
		for j := range X[i] {
			if rng.Intn(20) == 0 {
				X[i][j] = math.NaN() // NaN must hold no predicate, like the scalar path
			} else {
				X[i][j] = float64(rng.Intn(16)) / 8.0 // values straddle thresholds, with exact ties
			}
		}
	}
	return X
}

// naiveApply is the reference evaluation the compiled path must reproduce.
func naiveApply(rs []Rule, X [][]float64) [][]int {
	fired := make([][]int, len(X))
	for i, x := range X {
		for j := range rs {
			if rs[j].Fires(x) {
				fired[i] = append(fired[i], j)
			}
		}
	}
	return fired
}

// TestCompiledApplyMatchesNaive is the compiled set's core equivalence
// property: firing sets identical to per-rule Fires on randomized matrices.
func TestCompiledApplyMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		width := 1 + rng.Intn(6)
		rs := randomRules(rng, 1+rng.Intn(20), width)
		X := randomMatrix(rng, rng.Intn(300), width)

		want := naiveApply(rs, X)
		c, err := Compile(rs, width)
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		got := c.Apply(X)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d rows, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("trial %d row %d: fired %v, want %v", trial, i, got[i], want[i])
			}
			for k := range want[i] {
				if got[i][k] != want[i][k] {
					t.Fatalf("trial %d row %d: fired %v, want %v", trial, i, got[i], want[i])
				}
			}
		}

		// Eval bitmasks agree with the firing sets.
		f := c.Eval(X)
		for i := range want {
			for j := range rs {
				wantFires := false
				for _, r := range want[i] {
					if r == j {
						wantFires = true
					}
				}
				if f.Fires(j, i) != wantFires {
					t.Fatalf("trial %d: Fires(%d,%d) = %v, want %v", trial, j, i, f.Fires(j, i), wantFires)
				}
			}
		}
	}
}

// TestCompiledStatsCoverageMatchNaive checks Stats and Coverage against the
// reference loops.
func TestCompiledStatsCoverageMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		width := 1 + rng.Intn(5)
		rs := randomRules(rng, 1+rng.Intn(15), width)
		X := randomMatrix(rng, 1+rng.Intn(200), width)
		y := make([]bool, len(X))
		for i := range y {
			y[i] = rng.Intn(2) == 0
		}

		wantStats := make([]Stat, len(rs))
		for i, x := range X {
			for j := range rs {
				if rs[j].Fires(x) {
					wantStats[j].Support++
					if y[i] {
						wantStats[j].Matches++
					}
				}
			}
		}
		for j := range wantStats {
			wantStats[j].MatchRate = (float64(wantStats[j].Matches) + 1) / (float64(wantStats[j].Support) + 2)
		}
		c, err := Compile(rs, width)
		if err != nil {
			t.Fatal(err)
		}
		gotStats := c.Stats(X, y)
		for j := range rs {
			if gotStats[j] != wantStats[j] {
				t.Fatalf("trial %d rule %d: stats %+v, want %+v", trial, j, gotStats[j], wantStats[j])
			}
		}

		covered := 0
		for _, x := range X {
			for j := range rs {
				if rs[j].Fires(x) {
					covered++
					break
				}
			}
		}
		want := float64(covered) / float64(len(X))
		if got := c.Coverage(X); got != want {
			t.Fatalf("trial %d: coverage %v, want %v", trial, got, want)
		}
	}
}

// TestCompiledParallelDeterminism forces multi-worker evaluation (real
// concurrency even on one core) and compares with single-worker output.
func TestCompiledParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rs := randomRules(rng, 30, 5)
	X := randomMatrix(rng, 5000, 5)
	c, err := Compile(rs, 5)
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	par8 := c.Apply(X)
	runtime.GOMAXPROCS(1)
	serial := c.Apply(X)
	for i := range serial {
		if len(par8[i]) != len(serial[i]) {
			t.Fatalf("row %d differs between 8 and 1 workers", i)
		}
		for k := range serial[i] {
			if par8[i][k] != serial[i][k] {
				t.Fatalf("row %d differs between 8 and 1 workers", i)
			}
		}
	}
}

// TestCompileWidthInvariant pins the loud failure for schema/rule
// mismatches.
func TestCompileWidthInvariant(t *testing.T) {
	rs := []Rule{{Predicates: []Predicate{{Metric: 5, Op: GT, Threshold: 0.5, Name: "ghost.metric"}}}}
	if _, err := Compile(rs, 5); err == nil {
		t.Fatal("Compile should reject a predicate outside the matrix width")
	} else if !strings.Contains(err.Error(), "ghost.metric") {
		t.Errorf("error should name the offending predicate, got %v", err)
	}
	if _, err := Compile(rs, 6); err != nil {
		t.Fatalf("Compile rejected an in-range predicate: %v", err)
	}
}

// TestDedupKeyAllocationFree guards the satellite requirement: building the
// dedup key of a typical (≤ maxInlinePreds) rule must not allocate.
func TestDedupKeyAllocationFree(t *testing.T) {
	r := sampleRules()[1]
	allocs := testing.AllocsPerRun(100, func() {
		_ = r.key()
	})
	if allocs != 0 {
		t.Errorf("rule key allocates %v times per call, want 0", allocs)
	}
}

// TestApplyRowBitsetMatchesApplyRow is the bitset path's equivalence
// property: one pooled RowScratch serving many fuzzed rows reproduces
// ApplyRow (and hence the naive reference) exactly, including NaN columns
// and vacuous rules.
func TestApplyRowBitsetMatchesApplyRow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		width := 1 + rng.Intn(6)
		rs := randomRules(rng, 1+rng.Intn(20), width)
		X := randomMatrix(rng, 1+rng.Intn(200), width)
		c, err := Compile(rs, width)
		if err != nil {
			t.Fatal(err)
		}
		s := c.NewRowScratch()
		var fired []int
		for i, x := range X {
			want := c.ApplyRow(x)
			c.ApplyRowBitset(x, s)
			fired = s.AppendFired(fired[:0])
			if len(fired) != len(want) {
				t.Fatalf("trial %d row %d: bitset fired %v, ApplyRow %v", trial, i, fired, want)
			}
			for k := range want {
				if fired[k] != want[k] {
					t.Fatalf("trial %d row %d: bitset fired %v, ApplyRow %v", trial, i, fired, want)
				}
			}
		}
	}
}

// TestApplyRowBitsetSteadyStateAllocs pins the serving path's rule
// evaluation to zero allocations per row.
func TestApplyRowBitsetSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rs := randomRules(rng, 40, 8)
	X := randomMatrix(rng, 32, 8)
	c, err := Compile(rs, 8)
	if err != nil {
		t.Fatal(err)
	}
	s := c.NewRowScratch()
	fired := make([]int, 0, c.NumRules())
	for _, x := range X { // warm
		c.ApplyRowBitset(x, s)
		fired = s.AppendFired(fired[:0])
	}
	allocs := testing.AllocsPerRun(200, func() {
		for _, x := range X {
			c.ApplyRowBitset(x, s)
			fired = s.AppendFired(fired[:0])
		}
	})
	if allocs != 0 {
		t.Fatalf("ApplyRowBitset+AppendFired allocates %v per %d-row cycle, want 0", allocs, len(X))
	}
}

// TestApplyRowBitsetWidthInvariant pins the loud schema-mismatch panic on
// the bitset path.
func TestApplyRowBitsetWidthInvariant(t *testing.T) {
	c, err := Compile([]Rule{{Predicates: []Predicate{{Metric: 3, Op: LE, Threshold: 1}}}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("narrow row should panic")
		}
	}()
	c.ApplyRowBitset(make([]float64, 2), c.NewRowScratch())
}
