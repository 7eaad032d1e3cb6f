package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// writeLog appends the payloads to a fresh log at path and returns the
// file's final size.
func writeLog(t *testing.T, path string, payloads [][]byte, opts Options) int64 {
	t.Helper()
	w, err := OpenFileWriter(path, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	off := w.Offset()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return off
}

// readLog replays the log at path, returning the payload copies and the
// scan result.
func readLog(t *testing.T, path string) ([][]byte, ScanResult) {
	t.Helper()
	var got [][]byte
	res, err := ScanFile(path, func(p []byte) error {
		got = append(got, bytes.Clone(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, res
}

func randPayloads(rng *rand.Rand, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		p := make([]byte, 1+rng.Intn(200))
		rng.Read(p)
		out[i] = p
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	for _, policy := range []Options{{Policy: SyncAlways}, {Policy: SyncNever}, {Policy: SyncInterval, Interval: time.Millisecond}} {
		t.Run(policy.Policy.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "w.log")
			rng := rand.New(rand.NewSource(1))
			want := randPayloads(rng, 50)
			size := writeLog(t, path, want, policy)
			got, res := readLog(t, path)
			if res.Torn || res.Frames != len(want) || res.Size != size {
				t.Fatalf("scan = %+v, want %d frames / %d bytes, untorn", res, len(want), size)
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("frame %d mismatch", i)
				}
			}
		})
	}
}

func TestAppendBounds(t *testing.T) {
	w := NewWriter(&memFile{}, 0, Options{Policy: SyncNever})
	if err := w.Append(nil); err == nil {
		t.Error("empty payload accepted")
	}
	if err := w.Append(make([]byte, MaxFrame+1)); err == nil {
		t.Error("oversized payload accepted")
	}
	if err := w.Append([]byte("ok")); err != nil {
		t.Error(err)
	}
}

func TestReopenAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.log")
	rng := rand.New(rand.NewSource(2))
	first := randPayloads(rng, 10)
	writeLog(t, path, first, Options{Policy: SyncAlways})

	_, res := readLog(t, path)
	w, err := OpenFileWriter(path, res.Size, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	second := randPayloads(rng, 10)
	for _, p := range second {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, res := readLog(t, path)
	if res.Torn || len(got) != 20 {
		t.Fatalf("after reopen: %d frames (torn=%v), want 20", len(got), res.Torn)
	}
	if !bytes.Equal(got[19], second[9]) {
		t.Fatal("last frame mismatch after reopen")
	}
}

func TestCloseIdempotentAndRefusesAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.log")
	w, err := OpenFileWriter(path, 0, Options{Policy: SyncInterval, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := w.Append([]byte("y")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
}

// TestIntervalSyncFlushesDirtyWriter: under SyncInterval the background
// ticker fsyncs a writer left dirty by an append, with no Sync call.
func TestIntervalSyncFlushesDirtyWriter(t *testing.T) {
	w, err := OpenFileWriter(filepath.Join(t.TempDir(), "w.log"), 0, Options{Policy: SyncInterval, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, _, syncs := w.Stats(); syncs > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no background fsync within 5s of a 1ms interval")
		}
	}
}

func TestScanMissingFileIsEmpty(t *testing.T) {
	res, err := ScanFile(filepath.Join(t.TempDir(), "absent.log"), func([]byte) error {
		t.Fatal("frame from a missing file")
		return nil
	})
	if err != nil || res.Frames != 0 || res.Torn {
		t.Fatalf("missing file scan = %+v, %v", res, err)
	}
}

func TestScanFnErrorAborts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.log")
	writeLog(t, path, [][]byte{[]byte("a"), []byte("b")}, Options{Policy: SyncNever})
	boom := errors.New("boom")
	n := 0
	_, err := ScanFile(path, func([]byte) error { n++; return boom })
	if !errors.Is(err, boom) || n != 1 {
		t.Fatalf("err=%v after %d frames, want boom after 1", err, n)
	}
}

func TestConcurrentAppendersProduceWholeFrames(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.log")
	w, err := OpenFileWriter(path, 0, Options{Policy: SyncInterval, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, each = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := w.Append(fmt.Appendf(nil, "g%d-%d", g, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	appends, _, _ := w.Stats()
	if appends != goroutines*each {
		t.Fatalf("appends = %d, want %d", appends, goroutines*each)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, res := readLog(t, path)
	if res.Torn || len(got) != goroutines*each {
		t.Fatalf("replayed %d frames (torn=%v), want %d", len(got), res.Torn, goroutines*each)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	if p, _, err := ParseSyncPolicy("always"); err != nil || p != SyncAlways {
		t.Errorf("always -> %v, %v", p, err)
	}
	if p, _, err := ParseSyncPolicy("never"); err != nil || p != SyncNever {
		t.Errorf("never -> %v, %v", p, err)
	}
	if p, d, err := ParseSyncPolicy("250ms"); err != nil || p != SyncInterval || d != 250*time.Millisecond {
		t.Errorf("250ms -> %v, %v, %v", p, d, err)
	}
	for _, bad := range []string{"", "sometimes", "-1s", "0s"} {
		if _, _, err := ParseSyncPolicy(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestOpenFileWriterRejectsShortFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.log")
	if err := os.WriteFile(path, []byte("tiny"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileWriter(path, 1000, Options{}); err == nil {
		t.Fatal("validSize beyond the file accepted")
	}
}

// memFile is an in-memory File for tests that need no disk.
type memFile struct {
	buf   bytes.Buffer
	syncs int
}

func (m *memFile) Write(p []byte) (int, error) { return m.buf.Write(p) }
func (m *memFile) Sync() error                 { m.syncs++; return nil }

func TestSyncPolicies(t *testing.T) {
	m := &memFile{}
	w := NewWriter(m, 0, Options{Policy: SyncAlways})
	w.Append([]byte("a"))
	w.Append([]byte("b"))
	if m.syncs != 2 {
		t.Errorf("SyncAlways: %d syncs after 2 appends", m.syncs)
	}

	m = &memFile{}
	w = NewWriter(m, 0, Options{Policy: SyncNever})
	w.Append([]byte("a"))
	if m.syncs != 0 {
		t.Errorf("SyncNever: %d syncs", m.syncs)
	}
	if err := w.Sync(); err != nil || m.syncs != 1 {
		t.Errorf("explicit Sync: err=%v syncs=%d", err, m.syncs)
	}
	if err := w.Sync(); err != nil || m.syncs != 1 {
		t.Errorf("Sync with nothing dirty resynced: syncs=%d", m.syncs)
	}
}

func TestScannerAfterEOFStaysEOF(t *testing.T) {
	sc := NewScanner(bytes.NewReader(nil))
	if _, err := sc.Next(); err != io.EOF {
		t.Fatalf("first Next = %v", err)
	}
	if _, err := sc.Next(); err != io.EOF {
		t.Fatalf("second Next = %v", err)
	}
}
