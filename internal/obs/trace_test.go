package obs

import (
	"regexp"
	"sync"
	"testing"
	"time"
)

func TestTraceStagesAccumulate(t *testing.T) {
	tr := NewTrace(42)
	if tr.ID() != 42 {
		t.Fatalf("ID = %d", tr.ID())
	}
	tr.Add(StageScore, 100*time.Microsecond)
	tr.Add(StageScore, 50*time.Microsecond)
	tr.Add(StageWALAppend, time.Millisecond)
	tr.Add(StageWALFsync, -time.Second) // negative ignored
	if got := tr.Stage(StageScore); got != 150*time.Microsecond {
		t.Fatalf("StageScore = %v", got)
	}
	if got := tr.Stage(StageWALFsync); got != 0 {
		t.Fatalf("negative Add recorded: %v", got)
	}

	var order []Stage
	var total time.Duration
	tr.Each(func(s Stage, d time.Duration) {
		order = append(order, s)
		total += d
	})
	if len(order) != 2 || order[0] != StageScore || order[1] != StageWALAppend {
		t.Fatalf("Each order = %v", order)
	}
	if total != 150*time.Microsecond+time.Millisecond {
		t.Fatalf("Each total = %v", total)
	}

	t0 := time.Now().Add(-time.Millisecond)
	tr.Observe(StageTopKMerge, t0)
	if tr.Stage(StageTopKMerge) < time.Millisecond {
		t.Fatalf("Observe recorded %v", tr.Stage(StageTopKMerge))
	}
	if tr.Total() <= 0 {
		t.Fatalf("Total = %v", tr.Total())
	}

	tr.Reset()
	if tr.Stage(StageScore) != 0 || tr.ID() != 42 {
		t.Fatalf("Reset incomplete: score=%v id=%d", tr.Stage(StageScore), tr.ID())
	}
	if p, d := tr.Slowest(); p != 0 || d != 0 {
		t.Fatalf("Reset kept slowest: %d %v", p, d)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.Add(StageScore, time.Second)
	tr.Observe(StageScore, time.Now())
	tr.ObservePartition(1, time.Second)
	tr.Each(func(Stage, time.Duration) { t.Fatal("Each on nil trace called f") })
	tr.Reset()
	if tr.ID() != 0 || tr.Stage(StageScore) != 0 || tr.Total() != 0 {
		t.Fatal("nil trace returned nonzero")
	}
	if p, d := tr.Slowest(); p != 0 || d != 0 {
		t.Fatalf("nil Slowest = %d %v", p, d)
	}
}

func TestTraceSlowestPartition(t *testing.T) {
	tr := NewTrace(1)
	tr.ObservePartition(0, 3*time.Millisecond)
	tr.ObservePartition(5, 9*time.Millisecond)
	tr.ObservePartition(2, 4*time.Millisecond)
	tr.ObservePartition(7, -time.Millisecond) // ignored
	if p, d := tr.Slowest(); p != 5 || d != 9*time.Millisecond {
		t.Fatalf("Slowest = partition %d at %v, want 5 at 9ms", p, d)
	}
}

func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace(9)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.Add(StageScatter, time.Microsecond)
				tr.ObservePartition(part, time.Duration(i)*time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if got := tr.Stage(StageScatter); got != 8000*time.Microsecond {
		t.Fatalf("concurrent Add lost updates: %v", got)
	}
	if _, d := tr.Slowest(); d != 999*time.Microsecond {
		t.Fatalf("Slowest = %v", d)
	}
}

func TestStageNames(t *testing.T) {
	snake := regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	seen := map[string]bool{}
	for s := 0; s < NumStages; s++ {
		name := Stage(s).String()
		if !snake.MatchString(name) {
			t.Errorf("stage %d name %q not snake_case", s, name)
		}
		if seen[name] {
			t.Errorf("duplicate stage name %q", name)
		}
		seen[name] = true
	}
	if Stage(200).String() != "unknown" {
		t.Errorf("out-of-range stage name = %q", Stage(200).String())
	}
}
