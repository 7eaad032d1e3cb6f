package main

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	learnrisk "repro"
	"repro/internal/match"
	"repro/internal/server"
	"repro/internal/wal"
)

// fakeAdder records the values it accepts and can be armed to fail from a
// given record on.
type fakeAdder struct {
	added  [][]string
	failAt int // -1 = never fail
}

func (a *fakeAdder) AddRecord(values []string) (uint64, error) {
	if a.failAt >= 0 && len(a.added) == a.failAt {
		return 0, errors.New("store full")
	}
	a.added = append(a.added, append([]string(nil), values...))
	return uint64(len(a.added)), nil
}

func writeRecordsCSV(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "records.csv")
	content := "id,entity_id,title,year\n"
	for i := 0; i < n; i++ {
		content += fmt.Sprintf("r%d,e%d,title %d,%d\n", i, i, i, 1990+i)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestWarmLoadRecords(t *testing.T) {
	path := writeRecordsCSV(t, 10)
	dst := &fakeAdder{failAt: -1}
	n, err := warmLoadRecords(context.Background(), dst, 2, path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 || len(dst.added) != 10 {
		t.Fatalf("loaded %d records, store saw %d, want 10", n, len(dst.added))
	}
	if dst.added[3][0] != "title 3" || dst.added[3][1] != "1993" {
		t.Errorf("record 3 values = %v", dst.added[3])
	}
}

// TestWarmLoadRecordsPartialFailure: a mid-file store failure reports the
// count actually applied, and the error names the failing record.
func TestWarmLoadRecordsPartialFailure(t *testing.T) {
	path := writeRecordsCSV(t, 10)
	dst := &fakeAdder{failAt: 4}
	n, err := warmLoadRecords(context.Background(), dst, 2, path)
	if err == nil {
		t.Fatal("expected a mid-file failure")
	}
	if n != 4 || len(dst.added) != 4 {
		t.Fatalf("reported %d loaded, store holds %d, want 4", n, len(dst.added))
	}
	if want := `record 4 (id "r4")`; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q should name %s", err, want)
	}
}

// TestWarmLoadRecordsCancellation: a canceled context stops the row loop
// promptly and surfaces context.Canceled with the partial count.
func TestWarmLoadRecordsCancellation(t *testing.T) {
	path := writeRecordsCSV(t, 50)
	ctx, cancel := context.WithCancel(context.Background())
	dst := &fakeAdder{failAt: -1}
	cancel()
	n, err := warmLoadRecords(ctx, dst, 2, path)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n != 0 || len(dst.added) != 0 {
		t.Fatalf("canceled-before-start load applied %d records", n)
	}

	// Cancel partway: the adder trips the cancel after a few records.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	tripping := &cancelingAdder{inner: &fakeAdder{failAt: -1}, cancel: cancel2, after: 7}
	n, err = warmLoadRecords(ctx2, tripping, 2, path)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-file cancel: err = %v, want context.Canceled", err)
	}
	if n != 7 {
		t.Fatalf("mid-file cancel applied %d records, want 7", n)
	}
}

func TestWarmLoadRecordsFileErrors(t *testing.T) {
	if _, err := warmLoadRecords(context.Background(), &fakeAdder{failAt: -1}, 2, filepath.Join(t.TempDir(), "missing.csv")); err == nil {
		t.Error("missing file should fail")
	}
	bad := filepath.Join(t.TempDir(), "bad.csv")
	if err := os.WriteFile(bad, []byte("id,entity_id,a\nr1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := warmLoadRecords(context.Background(), &fakeAdder{failAt: -1}, 1, bad)
	if err == nil || n != 0 {
		t.Errorf("malformed row: n=%d err=%v", n, err)
	}
}

// cancelingAdder cancels the context after accepting a fixed number of
// records, simulating SIGINT mid-load.
type cancelingAdder struct {
	inner  *fakeAdder
	cancel context.CancelFunc
	after  int
}

func (a *cancelingAdder) AddRecord(values []string) (uint64, error) {
	id, err := a.inner.AddRecord(values)
	if len(a.inner.added) == a.after {
		a.cancel()
	}
	return id, err
}

// openStoreFixture trains a small model and writes n of its workload's
// right-table records as a warm-load CSV.
func openStoreFixture(t *testing.T, n int) (*learnrisk.Workload, *learnrisk.Model, string) {
	t.Helper()
	w, err := learnrisk.Generate("AB", 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := learnrisk.Train(context.Background(), w, learnrisk.Options{RiskEpochs: 150, ClassifierEpochs: 15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	cw := csv.NewWriter(&buf)
	cw.Write(append([]string{"id", "entity_id"}, w.AttrNames()...))
	for i := 0; i < n; i++ {
		vals, entity := w.RightRecordAt(i)
		cw.Write(append([]string{fmt.Sprintf("r%d", i), entity}, vals...))
	}
	cw.Flush()
	path := filepath.Join(t.TempDir(), "records.csv")
	if err := os.WriteFile(path, []byte(buf.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return w, m, path
}

// startStore runs openStore the way main does for the given flags and
// returns the server once the open has finished.
func startStore(t *testing.T, m *learnrisk.Model, partitions int, dir, records string) *server.Server {
	t.Helper()
	srv := server.New(m, server.Config{Partitions: partitions})
	t.Cleanup(func() {
		if err := srv.Store().Close(); err != nil {
			t.Errorf("closing the store: %v", err)
		}
	})
	if dir != "" {
		srv.SetDurablePending()
	}
	openStore(context.Background(), srv, m, dir, records, match.Config{}, match.DurableOptions{Sync: wal.SyncNever})
	return srv
}

// TestOpenStore covers cmd/serve's one store-open path: an in-memory
// warm-load, a fresh data dir seeded from -records and reopened without
// it, a data dir written by a single flat durable store opened in place
// as one partition (its records served, -records skipped), and that flat
// dir refused as four partitions — not ready, mutations still gated.
func TestOpenStore(t *testing.T) {
	const n = 12
	w, m, records := openStoreFixture(t, n)

	if srv := startStore(t, m, 0, "", records); srv.Live() != n {
		t.Errorf("in-memory warm-load: live = %d, want %d", srv.Live(), n)
	} else if ok, reason := srv.Ready(); !ok {
		t.Errorf("in-memory warm-load left the server not ready: %s", reason)
	}

	fresh := t.TempDir()
	srv := startStore(t, m, 2, fresh, records)
	if ok, reason := srv.Ready(); !ok || srv.Live() != n || !srv.Store().Durable() {
		t.Fatalf("fresh data dir: ready=%v (%s), live %d, durable %v", ok, reason, srv.Live(), srv.Store().Durable())
	}
	if _, err := srv.AddRecord(rightValues(w, n)); err != nil {
		t.Fatalf("add after open: %v", err)
	}
	if err := srv.Store().Close(); err != nil {
		t.Fatal(err)
	}
	if srv := startStore(t, m, 2, fresh, records); srv.Live() != n+1 {
		t.Errorf("reopened data dir: live = %d, want %d (replayed, -records skipped)", srv.Live(), n+1)
	}

	flat := t.TempDir()
	d, err := m.OpenDurableMatchStore(flat, learnrisk.MatchConfig{}, learnrisk.DurableMatchOptions{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := d.Add(rightValues(w, n+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	srv = startStore(t, m, 1, flat, records)
	if ok, reason := srv.Ready(); !ok || srv.Live() != 5 {
		t.Fatalf("flat data dir as 1 partition: ready=%v (%s), live %d, want 5 (-records skipped)", ok, reason, srv.Live())
	}
	if vals, ok := srv.Store().Get(0); !ok || vals[0] != rightValues(w, n)[0] {
		t.Errorf("flat data dir as 1 partition: record 0 = %v, want the flat store's first record", vals)
	}

	if err := srv.Store().Close(); err != nil {
		t.Fatal(err)
	}
	srv = startStore(t, m, 4, flat, records)
	ok, reason := srv.Ready()
	if ok || !strings.Contains(reason, "flat single-store layout") {
		t.Errorf("flat data dir as 4 partitions: ready=%v, reason %q, want a refusal naming the layout", ok, reason)
	}
	if _, err := srv.AddRecord(rightValues(w, 0)); !errors.Is(err, server.ErrStoreLoading) {
		t.Errorf("add after a refused open = %v, want ErrStoreLoading", err)
	}
}

func rightValues(w *learnrisk.Workload, i int) []string {
	vals, _ := w.RightRecordAt(i)
	return vals
}
