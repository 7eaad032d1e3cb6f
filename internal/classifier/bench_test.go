package classifier

import (
	"context"
	"testing"

	"repro/internal/datagen"
	"repro/internal/featstore"
)

// BenchmarkMatcherTrain times the batch ladder's classifier layer: fitting
// a matcher with the default config on the training rows of an AB
// workload at scale 0.1, then labeling those rows.
func BenchmarkMatcherTrain(b *testing.B) {
	w := datagen.MustGenerate(datagen.AB(1), 0.1)
	cat := w.Left.Schema.Catalog(w.Left, w.Right)
	split, err := w.SplitPairs("3:2:5", 1)
	if err != nil {
		b.Fatal(err)
	}
	rows := featstore.New(w, cat).Rows(split.Train)
	b.ReportAllocs()
	for b.Loop() {
		m, err := TrainRowsCtx(context.Background(), w, cat, split.Train, rows, Config{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		m.LabelRows(w, split.Train, rows)
	}
	b.ReportMetric(float64(len(rows)), "rows")
}
