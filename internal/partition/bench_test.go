package partition

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchValues draws one two-attribute record of two tokens each over a
// Zipf-distributed 300-token vocabulary: probes reach candidates, and the
// commonest tokens of a 1,000-record store cross the default stop-token
// bound, so both the skip list and the legs do work.
func benchValues(z *rand.Zipf) []string {
	vals := make([]string, 2)
	for i := range vals {
		vals[i] = fmt.Sprintf("t%03d t%03d", z.Uint64(), z.Uint64())
	}
	return vals
}

// benchStore is an in-memory store of 4 partitions holding 1,000 records.
func benchStore(b *testing.B) (*Store, *rand.Zipf) {
	b.Helper()
	z := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, 299)
	ps, err := New(2, nil, Options{Partitions: 4})
	if err != nil {
		b.Fatal(err)
	}
	for range 1000 {
		if _, err := ps.Add(benchValues(z)); err != nil {
			b.Fatal(err)
		}
	}
	return ps, z
}

// BenchmarkResolveRouter times one scatter-gather resolve, k=5, with the
// fake leg: the pruning verdict, four legs and the merge.
func BenchmarkResolveRouter(b *testing.B) {
	ps, z := benchStore(b)
	probes := make([][]string, 64)
	for i := range probes {
		probes[i] = benchValues(z)
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, err := fakeResolve(ps, probes[i%len(probes)], 5); err != nil {
			b.Fatal(err)
		}
		i++
	}
	st := ps.Stats()
	b.ReportMetric(float64(st.PrunedTokens)/float64(st.Probes), "pruned/probe")
}

// BenchmarkAddDeleteRouter times one add and one delete of the same
// record, the router's whole write path.
func BenchmarkAddDeleteRouter(b *testing.B) {
	ps, z := benchStore(b)
	vals := benchValues(z)
	b.ReportAllocs()
	for b.Loop() {
		id, err := ps.Add(vals)
		if err != nil {
			b.Fatal(err)
		}
		if ok, err := ps.Delete(id); !ok || err != nil {
			b.Fatalf("delete(%d) = %v, %v", id, ok, err)
		}
	}
}
