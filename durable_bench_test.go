package learnrisk

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/match"
	"repro/internal/metrics"
	"repro/internal/wal"
)

// The durability benchmarks: replay throughput on restart (records/sec,
// the re-warm a durable store avoids doing over HTTP) and the per-record
// ingest overhead of the WAL at each fsync policy against the in-memory
// store as baseline. Run them with:
//
//	go test -run '^$' -bench Durable -benchmem .

const durableBenchRecords = 5000

// durableBenchNeeds are the per-attribute metric forms a served store of
// the benchmark's 3-attribute (Abt-Buy shaped) schema keeps per record, so
// ingest and replay pay the residue derivation a served store pays.
func durableBenchNeeds(b *testing.B) []metrics.Need {
	b.Helper()
	cat, err := buildCatalog([]Attr{{Name: "name", Type: "entity-name"}, {Name: "description", Type: "text"}, {Name: "price", Type: "numeric"}})
	if err != nil {
		b.Fatal(err)
	}
	return cat.AttrNeeds()
}

func benchValues(rng *rand.Rand, i int) []string {
	return []string{
		fmt.Sprintf("entity%d name%d token%d", i, rng.Intn(2000), rng.Intn(500)),
		fmt.Sprintf("street%d city%d", rng.Intn(800), rng.Intn(90)),
		fmt.Sprintf("attr%d", rng.Intn(3000)),
	}
}

// populateDurableDir builds one data dir holding durableBenchRecords as a
// pure WAL tail (no snapshot), and optionally compacts it into a snapshot.
func populateDurableDir(b *testing.B, snapshot bool) string {
	b.Helper()
	dir := b.TempDir()
	d, err := match.OpenDurable(dir, 3, durableBenchNeeds(b), match.Config{}, match.DurableOptions{
		Sync: wal.SyncNever, SnapshotEvery: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < durableBenchRecords; i++ {
		if _, err := d.Add(benchValues(rng, i)); err != nil {
			b.Fatal(err)
		}
	}
	if snapshot {
		if _, err := d.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
	// Leave the tail in place: Sync, then abandon without Close so the log
	// (not a shutdown snapshot) is what replay reads.
	if err := d.Sync(); err != nil {
		b.Fatal(err)
	}
	if !snapshot {
		return cloneBenchDir(b, dir)
	}
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

// cloneBenchDir copies the data dir so the still-open writer of the
// populated store cannot interfere with replays.
func cloneBenchDir(b *testing.B, src string) string {
	b.Helper()
	dst := b.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(src + "/" + e.Name())
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(dst+"/"+e.Name(), data, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	return dst
}

func benchReplay(b *testing.B, dir string) {
	needs := durableBenchNeeds(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := match.OpenDurable(dir, 3, needs, match.Config{}, match.DurableOptions{
			Sync: wal.SyncNever, SnapshotEvery: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if d.Len() != durableBenchRecords {
			b.Fatalf("replay recovered %d records, want %d", d.Len(), durableBenchRecords)
		}
		d.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(durableBenchRecords)*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
}

// BenchmarkDurableReplayWAL restarts from a pure operation-log tail (the
// crash shape: no shutdown snapshot) — 5k records replayed frame by frame
// into the blocking index.
func BenchmarkDurableReplayWAL(b *testing.B) {
	dir := populateDurableDir(b, false)
	benchReplay(b, dir)
}

// BenchmarkDurableReplaySnapshot restarts from a snapshot (the clean-
// shutdown shape: zero tail frames) — the bulk-load path replay rides
// after every snapshot cut.
func BenchmarkDurableReplaySnapshot(b *testing.B) {
	dir := populateDurableDir(b, true)
	benchReplay(b, dir)
}

// BenchmarkDurableIngest measures the per-record write path: the bare
// in-memory store against the durable store at each fsync policy. The gap
// between mem and fsync=never is the WAL framing overhead; fsync=always
// adds one fsync per acknowledged record.
func BenchmarkDurableIngest(b *testing.B) {
	type adder interface {
		Add(values []string) (uint64, error)
	}
	cases := []struct {
		name string
		open func(b *testing.B) adder
	}{
		{"mem", func(b *testing.B) adder {
			st, err := match.New(3, durableBenchNeeds(b), match.Config{})
			if err != nil {
				b.Fatal(err)
			}
			return st
		}},
		{"fsync=never", func(b *testing.B) adder {
			d, err := match.OpenDurable(b.TempDir(), 3, durableBenchNeeds(b), match.Config{}, match.DurableOptions{
				Sync: wal.SyncNever, SnapshotEvery: -1,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { d.Close() })
			return d
		}},
		{"fsync=always", func(b *testing.B) adder {
			d, err := match.OpenDurable(b.TempDir(), 3, durableBenchNeeds(b), match.Config{}, match.DurableOptions{
				Sync: wal.SyncAlways, SnapshotEvery: -1,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { d.Close() })
			return d
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			st := tc.open(b)
			rng := rand.New(rand.NewSource(2))
			vals := make([][]string, 4096)
			for i := range vals {
				vals[i] = benchValues(rng, i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.Add(vals[i%len(vals)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
