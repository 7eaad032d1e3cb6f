package featstore

import (
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/metrics"
)

func testWorkload(t testing.TB) (*dataset.Workload, *metrics.Catalog) {
	t.Helper()
	w := datagen.MustGenerate(datagen.DS(7), 0.02)
	return w, w.Left.Schema.Catalog(w.Left, w.Right)
}

// allPairs returns every pair index of w.
func allPairs(w *dataset.Workload) []int {
	idx := make([]int, len(w.Pairs))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// directRow computes one pair's row through a fresh ServeScratch, sharing
// no prepared record with any other pair.
func directRow(cat *metrics.Catalog, left, right []string) []float64 {
	return ComputeRowAppend(cat, nil, left, right, NewServeScratch(cat))
}

// TestRowsMatchDirectCompute is the store's core equivalence contract:
// every stored row is bit-identical to the pair's row computed directly.
func TestRowsMatchDirectCompute(t *testing.T) {
	w, cat := testWorkload(t)
	s := New(w, cat)
	idx := allPairs(w)
	rows := s.Rows(idx)
	for k, i := range idx {
		a, b := w.Values(i)
		want := directRow(cat, a, b)
		got := rows[k]
		if len(got) != len(want) {
			t.Fatalf("row %d width %d, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("row %d col %d (%s): store=%v direct=%v",
					i, j, cat.Metrics[j].Name, got[j], want[j])
			}
		}
	}
}

// TestRowsAreStableViews verifies the views alias the store's backing: a
// repeated index, a repeated request and a single-index request all see the
// same row, and a view's capacity stops an append from reaching the next
// row.
func TestRowsAreStableViews(t *testing.T) {
	w, cat := testWorkload(t)
	s := New(w, cat)
	first := s.Rows([]int{3, 1, 3})
	if &first[0][0] != &first[2][0] {
		t.Error("duplicate indices should alias the same backing row")
	}
	again := s.Rows([]int{1, 3})
	if &again[0][0] != &first[1][0] {
		t.Error("repeated request should return the same view")
	}
	if got := s.Rows([]int{3})[0]; &got[0] != &first[0][0] {
		t.Error("a single-index request should return the same view")
	}
	if c := cap(first[1]); c != s.Width() {
		t.Errorf("row view capacity %d, want the width %d", c, s.Width())
	}
}

// TestRowsParallelWorkers recomputes the store under forced multi-worker
// parallelism (meaningful even on one core) and compares to a fresh serial
// store; also exercised under -race by the tier-1 script.
func TestRowsParallelWorkers(t *testing.T) {
	w, cat := testWorkload(t)
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	par8 := New(w, cat).Rows(allPairs(w))
	runtime.GOMAXPROCS(1)
	serial := New(w, cat).Rows(allPairs(w))
	for i := range serial {
		for j := range serial[i] {
			if par8[i][j] != serial[i][j] {
				t.Fatalf("row %d col %d differs between parallel and serial fill", i, j)
			}
		}
	}
}

func TestRowsOutOfRangePanics(t *testing.T) {
	w, cat := testWorkload(t)
	s := New(w, cat)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range pair index")
		}
	}()
	s.Rows([]int{len(w.Pairs)})
}

func BenchmarkStoreFill(b *testing.B) {
	w, cat := testWorkload(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(w, cat).Rows(allPairs(w))
	}
}

func BenchmarkDirectCompute(b *testing.B) {
	w, cat := testWorkload(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for p := range w.Pairs {
			a, bb := w.Values(p)
			directRow(cat, a, bb)
		}
	}
}
