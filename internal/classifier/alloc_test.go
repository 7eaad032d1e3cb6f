package classifier

import (
	"context"
	"testing"
)

// TestLabelRowsAllocsDoNotGrowWithRows pins labeling to a per-call
// allocation count that does not depend on the number of rows: the result
// slices and one ProbScratch per worker chunk. Labels through the scratch
// stay bit-identical to ProbRow's.
func TestLabelRowsAllocsDoNotGrowWithRows(t *testing.T) {
	m := trainTestMatcher(t)
	all := testSplit.Test
	rows := testStore.Rows(all)
	truth := make([]bool, len(all))
	l := m.LabelRowsTruth(all, rows, truth)
	for k, row := range rows {
		if got, want := l.Prob[k], m.ProbRow(row); got != want {
			t.Fatalf("row %d: labeled %v, ProbRow %v", k, got, want)
		}
	}
	count := func(n int) float64 {
		return testing.AllocsPerRun(20, func() { m.LabelRowsTruth(all[:n], rows[:n], truth[:n]) })
	}
	few, many := count(len(all)/10), count(len(all))
	if few != many {
		t.Fatalf("labeling allocates %v/call for %d rows and %v/call for %d rows", few, len(all)/10, many, len(all))
	}
}

// TestTrainRowsAllocsDoNotGrowWithRows pins training's allocation count
// to one that does not depend on the number of rows: the projected
// network inputs share one backing array.
func TestTrainRowsAllocsDoNotGrowWithRows(t *testing.T) {
	all := testSplit.Train
	rows := testStore.Rows(all)
	match := matchFlags(testW, all)
	count := func(n int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := TrainRowsFlagsCtx(context.Background(), testCat, rows[:n], match[:n], Config{Epochs: 2}, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := count(len(all)/4), count(len(all))
	if few != many {
		t.Fatalf("training allocates %v/call for %d rows and %v/call for %d rows", few, len(all)/4, many, len(all))
	}
}
