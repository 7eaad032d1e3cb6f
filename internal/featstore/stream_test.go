package featstore

import (
	"errors"
	"iter"
	"testing"

	"repro/internal/dataset"
	"repro/internal/metrics"
)

func pairSeq(pairs []dataset.Pair) iter.Seq[dataset.Pair] {
	return func(yield func(dataset.Pair) bool) {
		for _, p := range pairs {
			if !yield(p) {
				return
			}
		}
	}
}

// directRows computes every pair's row of w through directRow: pair by
// pair, sharing no windowing or record deduplication with Streamer.
func directRows(w *dataset.Workload, cat *metrics.Catalog) [][]float64 {
	rows := make([][]float64, len(w.Pairs))
	for i := range rows {
		a, b := w.Values(i)
		rows[i] = directRow(cat, a, b)
	}
	return rows
}

// TestStreamerMatchesDirectCompute is the streaming path's core
// equivalence contract: every streamed row is bit-identical to the pair's
// row computed directly, across window sizes that exercise single-window,
// window-per-pair and partial-final-window shapes (with the
// prepared-record pools recycled across many windows).
func TestStreamerMatchesDirectCompute(t *testing.T) {
	w, cat := testWorkload(t)
	want := directRows(w, cat)
	for _, window := range []int{0, 1, 7, len(w.Pairs), len(w.Pairs) + 100} {
		st := NewStreamer(cat, w.Left, w.Right, window)
		seen := 0
		n, err := st.Run(pairSeq(w.Pairs), nil, func(base int, pairs []dataset.Pair, rows [][]float64) error {
			if len(pairs) != len(rows) {
				t.Fatalf("window=%d: %d pairs with %d rows", window, len(pairs), len(rows))
			}
			for j, row := range rows {
				i := base + j
				if pairs[j] != w.Pairs[i] {
					t.Fatalf("window=%d: pair %d = %+v, want %+v", window, i, pairs[j], w.Pairs[i])
				}
				if len(row) != len(want[i]) {
					t.Fatalf("window=%d: row %d width %d, want %d", window, i, len(row), len(want[i]))
				}
				for c := range row {
					if row[c] != want[i][c] {
						t.Fatalf("window=%d: row %d col %d (%s): streamed=%v direct=%v",
							window, i, c, cat.Metrics[c].Name, row[c], want[i][c])
					}
				}
				seen++
			}
			return nil
		})
		if err != nil {
			t.Fatalf("window=%d: %v", window, err)
		}
		if n != len(w.Pairs) || seen != len(w.Pairs) {
			t.Fatalf("window=%d: delivered %d pairs, saw %d rows, want %d", window, n, seen, len(w.Pairs))
		}
	}
}

// TestStreamerKeepSkipsRows: skipped stream positions arrive as nil rows
// (never computed), kept positions still match the direct computation
// bit-identically.
func TestStreamerKeepSkipsRows(t *testing.T) {
	w, cat := testWorkload(t)
	st := NewStreamer(cat, w.Left, w.Right, 13)
	kept := 0
	_, err := st.Run(pairSeq(w.Pairs), func(i int) bool { return i%3 == 0 }, func(base int, pairs []dataset.Pair, rows [][]float64) error {
		for j, row := range rows {
			i := base + j
			if i%3 != 0 {
				if row != nil {
					return errors.New("skipped position got a row")
				}
				continue
			}
			a, b := w.Values(i)
			want := directRow(cat, a, b)
			for c := range want {
				if row[c] != want[c] {
					t.Fatalf("kept row %d col %d: %v != %v", i, c, row[c], want[c])
				}
			}
			kept++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := (len(w.Pairs) + 2) / 3; kept != want {
		t.Fatalf("kept %d rows, want %d", kept, want)
	}
}

// TestStreamerSinkErrorStops: the first sink error aborts the stream and
// is returned, with the delivered count reflecting only full windows the
// sink accepted.
func TestStreamerSinkErrorStops(t *testing.T) {
	w, cat := testWorkload(t)
	if len(w.Pairs) < 20 {
		t.Fatalf("workload too small: %d pairs", len(w.Pairs))
	}
	st := NewStreamer(cat, w.Left, w.Right, 5)
	boom := errors.New("boom")
	calls := 0
	n, err := st.Run(pairSeq(w.Pairs), nil, func(base int, pairs []dataset.Pair, rows [][]float64) error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 2 {
		t.Fatalf("sink called %d times, want 2", calls)
	}
	if n != 5 {
		t.Fatalf("delivered %d pairs, want 5 (one accepted window)", n)
	}
}

// TestStreamerOutOfRangePanics: a streamed pair referencing records outside
// the tables fails loudly.
func TestStreamerOutOfRangePanics(t *testing.T) {
	w, cat := testWorkload(t)
	st := NewStreamer(cat, w.Left, w.Right, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range pair")
		}
	}()
	st.Run(pairSeq([]dataset.Pair{{Left: 0, Right: len(w.Right.Records)}}), nil,
		func(int, []dataset.Pair, [][]float64) error { return nil })
}
