package server

import (
	"sync/atomic"
	"testing"

	learnrisk "repro"
)

// BenchmarkServerScore measures the saturated single-pair serving path:
// 8 goroutines per GOMAXPROCS call Server.Score back to back, so the time
// includes the snapshot load and the served counter on top of
// Model.Score. ns/op is per scored pair. Run it with:
//
//	go test -run '^$' -bench BenchmarkServerScore -benchmem -cpu 1,2 ./internal/server
func BenchmarkServerScore(b *testing.B) {
	w, m := trainedModel(b, 7)
	pairs := make([]learnrisk.Pair, 256)
	for i := range pairs {
		l, r := w.PairValues((i * 13) % w.Size())
		pairs[i] = learnrisk.Pair{Left: l, Right: r}
	}
	srv := New(m, Config{})
	var next atomic.Int64
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			p := pairs[int(next.Add(1))%len(pairs)]
			if _, _, err := srv.Score(p); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
