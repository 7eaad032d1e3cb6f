package featstore

import "testing"

// TestComputeRowAppendMatchesComputeRow pins the zero-allocation serving
// row against a fresh scratch per pair, including buffer-reuse pollution
// (the same scratch serving many different pairs) and the one-pair side
// cache.
func TestComputeRowAppendMatchesComputeRow(t *testing.T) {
	w, cat := testWorkload(t)
	s := NewServeScratch(cat)
	var row []float64
	n := len(w.Pairs)
	if n > 60 {
		n = 60
	}
	for i := 0; i < n; i++ {
		l, r := w.Values(i)
		row = ComputeRowAppend(cat, row[:0], l, r, s)
		want := directRow(cat, l, r)
		if len(row) != len(want) {
			t.Fatalf("pair %d: %d cols, want %d", i, len(row), len(want))
		}
		for j := range want {
			if row[j] != want[j] {
				t.Fatalf("pair %d col %d (%s): append=%v direct=%v",
					i, j, cat.Metrics[j].Name, row[j], want[j])
			}
		}
		// Same pair again: the side cache must serve identical values.
		again := ComputeRowAppend(cat, nil, l, r, s)
		for j := range want {
			if again[j] != want[j] {
				t.Fatalf("pair %d col %d: side-cache hit diverged", i, j)
			}
		}
	}
}

// TestComputeRowAppendShortSides pins the missing-value padding: sides
// narrower than the schema score as empty-padded.
func TestComputeRowAppendShortSides(t *testing.T) {
	w, cat := testWorkload(t)
	s := NewServeScratch(cat)
	l, r := w.Values(0)
	short := l[:2]
	padded := make([]string, len(l))
	copy(padded, short)
	got := ComputeRowAppend(cat, nil, short, r, s)
	want := directRow(cat, padded, r)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("col %d (%s): short=%v padded=%v", j, cat.Metrics[j].Name, got[j], want[j])
		}
	}
}

// TestComputeRowAppendSteadyStateAllocs pins the zero-allocation contract
// of the serving row computation.
func TestComputeRowAppendSteadyStateAllocs(t *testing.T) {
	w, cat := testWorkload(t)
	s := NewServeScratch(cat)
	n := len(w.Pairs)
	if n > 16 {
		n = 16
	}
	row := make([]float64, 0, len(cat.Metrics))
	for i := 0; i < n; i++ { // warm the buffers
		l, r := w.Values(i)
		row = ComputeRowAppend(cat, row[:0], l, r, s)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < n; i++ {
			l, r := w.Values(i)
			row = ComputeRowAppend(cat, row[:0], l, r, s)
		}
	})
	if allocs != 0 {
		t.Fatalf("ComputeRowAppend allocates %v times per %d-pair cycle, want 0", allocs, n)
	}
}
