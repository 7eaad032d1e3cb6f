package core

import (
	"bytes"
	"runtime"
	"testing"
)

// fitParams serializes a trained model's learned parameters.
func fitParams(t *testing.T, workers int, epochs int) []byte {
	t.Helper()
	prev := runtime.GOMAXPROCS(workers)
	defer runtime.GOMAXPROCS(prev)
	insts, bad := syntheticRiskData(400, 11)
	m, err := New(mkFeatures(), Config{Epochs: epochs, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(insts, bad); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFitParallelMatchesSerial pins the determinism contract: Fit's
// parameters must not depend on GOMAXPROCS. The fit runs on the calling
// goroutine, so this guards against a worker pool creeping back into it
// with a worker-count-dependent reduction order.
func TestFitParallelMatchesSerial(t *testing.T) {
	serial := fitParams(t, 1, 60)
	for _, workers := range []int{2, 4, 8} {
		parallel := fitParams(t, workers, 60)
		if !bytes.Equal(serial, parallel) {
			t.Fatalf("Fit with GOMAXPROCS=%d produced different parameters than serial", workers)
		}
	}
}

// TestRiskAllMatchesRisk pins the cached batch scorer against the scalar
// path, serial and parallel.
func TestRiskAllMatchesRisk(t *testing.T) {
	insts, bad := syntheticRiskData(300, 13)
	m, err := New(mkFeatures(), Config{Epochs: 40, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(insts, bad); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(workers)
		batch := m.RiskAll(insts)
		runtime.GOMAXPROCS(prev)
		for i, inst := range insts {
			if batch[i] != m.Risk(inst) {
				t.Fatalf("workers=%d: RiskAll[%d] = %v, Risk = %v", workers, i, batch[i], m.Risk(inst))
			}
		}
	}
}
