package learnrisk

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// trainedModel trains one small model per test run and shares it.
func trainedModel(t *testing.T) (*Workload, *Model) {
	t.Helper()
	w, err := Generate("DS", 0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Train(context.Background(), w, Options{RiskEpochs: 150, ClassifierEpochs: 15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return w, m
}

// freshPairs draws raw-value pairs from the workload for the serving path.
func freshPairs(w *Workload, n int) []Pair {
	pairs := make([]Pair, n)
	for i := range pairs {
		l, r := w.PairValues((i * 13) % w.Size())
		pairs[i] = Pair{Left: l, Right: r}
	}
	return pairs
}

// TestRunMatchesTrainEvaluate locks the acceptance criterion: Run is a thin
// Train+Evaluate wrapper with byte-identical output for the same workload,
// options and seed.
func TestRunMatchesTrainEvaluate(t *testing.T) {
	w, err := Generate("AG", 0.03, 5)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{RiskEpochs: 80, ClassifierEpochs: 10, Seed: 5}
	viaRun, err := Run(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Train(context.Background(), w, opts)
	if err != nil {
		t.Fatal(err)
	}
	viaModel, err := m.Evaluate(w, m.TestPairs())
	if err != nil {
		t.Fatal(err)
	}
	if viaRun.AUROC != viaModel.AUROC ||
		viaRun.ClassifierF1 != viaModel.ClassifierF1 ||
		viaRun.ClassifierAccuracy != viaModel.ClassifierAccuracy ||
		viaRun.Mislabels != viaModel.Mislabels ||
		viaRun.NumFeatures != viaModel.NumFeatures ||
		viaRun.RuleCoverage != viaModel.RuleCoverage {
		t.Fatalf("report scalars differ: %+v vs %+v", viaRun, viaModel)
	}
	if len(viaRun.Ranking) != len(viaModel.Ranking) {
		t.Fatalf("ranking lengths differ: %d vs %d", len(viaRun.Ranking), len(viaModel.Ranking))
	}
	for i := range viaRun.Ranking {
		if viaRun.Ranking[i] != viaModel.Ranking[i] {
			t.Fatalf("ranking[%d] differs: %+v vs %+v", i, viaRun.Ranking[i], viaModel.Ranking[i])
		}
	}
	if viaRun.Model() == nil {
		t.Fatal("Run's report should expose its Model artifact")
	}
}

func TestTrainCancellation(t *testing.T) {
	w, err := Generate("DS", 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the first epoch
	_, err = Train(ctx, w, Options{Seed: 3})
	if err == nil {
		t.Fatal("Train with a canceled context should fail")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a context.Canceled chain", err)
	}
}

func TestTrainCancellationMidway(t *testing.T) {
	w, err := Generate("DS", 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Cancel from inside the progress callback: the next epoch-boundary
	// check must abort training.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{Seed: 3, RiskEpochs: 500}
	opts.Progress = func(stage string, done, total int) {
		if stage == "risk" && done >= 3 {
			cancel()
		}
	}
	_, err = Train(ctx, w, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a context.Canceled chain", err)
	}
}

// TestTrainCancelDuringClassifierJoinsRuleGeneration cancels while
// classifier training and rule generation run side by side: Train must
// report the classifier stage's cancellation, never reach the "rules"
// stage, and leave no goroutine behind.
func TestTrainCancelDuringClassifierJoinsRuleGeneration(t *testing.T) {
	w, err := Generate("DS", 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rulesReported := false
	opts := Options{Seed: 3}
	opts.Progress = func(stage string, done, total int) {
		switch {
		case stage == "classifier" && done == 2:
			cancel()
		case stage == "rules":
			rulesReported = true
		}
	}
	before := runtime.NumGoroutine()
	_, err = Train(ctx, w, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a context.Canceled chain", err)
	}
	if !strings.Contains(err.Error(), "classifier training") {
		t.Errorf("err = %v, want it to name the classifier stage", err)
	}
	if rulesReported {
		t.Error(`Progress reported the "rules" stage after the classifier failed`)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Train returned, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTrainProgressStages(t *testing.T) {
	w, err := Generate("DS", 0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	opts := Options{RiskEpochs: 50, ClassifierEpochs: 5, Seed: 7}
	opts.Progress = func(stage string, done, total int) {
		seen[stage]++
		if done < 1 || done > total {
			t.Errorf("stage %s: done %d outside [1,%d]", stage, done, total)
		}
	}
	if _, err := Train(context.Background(), w, opts); err != nil {
		t.Fatal(err)
	}
	if seen["classifier"] != 5 {
		t.Errorf("classifier progress calls = %d, want 5", seen["classifier"])
	}
	if seen["rules"] != 1 {
		t.Errorf("rules progress calls = %d, want 1", seen["rules"])
	}
	if seen["risk"] != 50 {
		t.Errorf("risk progress calls = %d, want 50", seen["risk"])
	}
}

func TestOptionsValidation(t *testing.T) {
	w, err := Generate("DS", 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts Options
		want string // substring of the error
	}{
		{"negative rule depth", Options{RuleDepth: -1}, "RuleDepth"},
		{"absurd rule depth", Options{RuleDepth: 99}, "RuleDepth"},
		{"negative risk epochs", Options{RiskEpochs: -5}, "RiskEpochs"},
		{"negative classifier epochs", Options{ClassifierEpochs: -2}, "ClassifierEpochs"},
		{"VaR confidence at 1", Options{VaRConfidence: 1}, "VaRConfidence"},
		{"VaR confidence negative", Options{VaRConfidence: -0.1}, "VaRConfidence"},
		{"VaR confidence above 1", Options{VaRConfidence: 1.5}, "VaRConfidence"},
		{"two-part ratio", Options{SplitRatio: "1:1"}, "SplitRatio"},
		{"non-numeric ratio", Options{SplitRatio: "a:b:c"}, "SplitRatio"},
		{"zero ratio part", Options{SplitRatio: "0:2:5"}, "SplitRatio"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Train(context.Background(), w, tc.opts); err == nil {
				t.Fatalf("opts %+v should fail", tc.opts)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %s", err, tc.want)
			}
			if _, err := Run(w, tc.opts); err == nil {
				t.Fatalf("Run with opts %+v should fail too", tc.opts)
			}
		})
	}
	// Zero values remain valid defaults.
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero options should validate, got %v", err)
	}
}

func TestScoreBatchMatchesScore(t *testing.T) {
	w, m := trainedModel(t)
	pairs := freshPairs(w, 40)
	batch, err := m.ScoreBatch(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(pairs) {
		t.Fatalf("batch size %d, want %d", len(batch), len(pairs))
	}
	for i, p := range pairs {
		s, err := m.Score(p)
		if err != nil {
			t.Fatal(err)
		}
		if s != batch[i] {
			t.Fatalf("pair %d: Score %+v != ScoreBatch %+v", i, s, batch[i])
		}
	}
	for i, s := range batch {
		if s.Prob < 0 || s.Prob > 1 || s.Risk < 0 || s.Risk > 1 {
			t.Fatalf("pair %d: score out of range: %+v", i, s)
		}
		if s.Match != (s.Prob >= 0.5) {
			t.Fatalf("pair %d: label %v inconsistent with prob %v", i, s.Match, s.Prob)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	w, m := trainedModel(t)
	pairs := freshPairs(w, 60)
	before, err := m.ScoreBatch(pairs)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Fingerprint() != m.Fingerprint() {
		t.Fatalf("fingerprint drifted: %s vs %s", loaded.Fingerprint(), m.Fingerprint())
	}
	after, err := loaded.ScoreBatch(pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("pair %d: loaded model diverged: %+v vs %+v", i, before[i], after[i])
		}
	}
	// A second round trip is stable too (no lossy encode).
	var buf2 bytes.Buffer
	if err := loaded.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("Save is not stable across a Load round trip")
	}
	// The loaded model evaluates the original workload identically.
	repA, err := m.Evaluate(w, m.TestPairs())
	if err != nil {
		t.Fatal(err)
	}
	repB, err := loaded.Evaluate(w, m.TestPairs())
	if err != nil {
		t.Fatal(err)
	}
	if repA.AUROC != repB.AUROC || len(repA.Ranking) != len(repB.Ranking) {
		t.Fatalf("loaded model evaluates differently: AUROC %v vs %v", repA.AUROC, repB.AUROC)
	}
	// Loaded models carry no train-time split.
	if loaded.TestPairs() != nil || loaded.TrainPairs() != nil || loaded.ValidPairs() != nil {
		t.Fatal("loaded model should not claim a train-time split")
	}
}

func TestLoadRejectsFingerprintMismatch(t *testing.T) {
	_, m := trainedModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Tamper with the schema so the stored fingerprint no longer matches.
	tampered := strings.Replace(buf.String(), `"type": "text"`, `"type": "entity-name"`, 1)
	if tampered == buf.String() {
		t.Fatal("tampering failed to change the envelope")
	}
	_, err := Load(strings.NewReader(tampered))
	if err == nil {
		t.Fatal("Load should reject a schema/fingerprint mismatch")
	}
	if !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("error %q should name the fingerprint", err)
	}

	// Unsupported version fails loudly too.
	versioned := strings.Replace(buf.String(), `"version": 1`, `"version": 99`, 1)
	if _, err := Load(strings.NewReader(versioned)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch error = %v", err)
	}

	// Garbage input fails loudly.
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage input should fail")
	}

	// A corrupted activation id in the network is rejected rather than
	// silently degrading to an identity activation.
	badAct := strings.Replace(buf.String(), `"act": 0`, `"act": 9`, 1)
	if badAct == buf.String() {
		t.Fatal("activation tampering failed to change the envelope")
	}
	if _, err := Load(strings.NewReader(badAct)); err == nil || !strings.Contains(err.Error(), "activation") {
		t.Fatalf("corrupted activation error = %v", err)
	}
}

func TestEvaluateRejectsMismatchedWorkload(t *testing.T) {
	_, m := trainedModel(t) // DS schema: 4 attributes
	other, err := Generate("AB", 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CompatibleWith(other); err == nil {
		t.Fatal("AB workload should not be compatible with a DS-trained model")
	}
	if _, err := m.Evaluate(other, []int{0, 1, 2}); err == nil {
		t.Fatal("Evaluate on a mismatched schema should fail")
	} else if !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("error %q should name the fingerprint", err)
	}
}

func TestEvaluateRejectsBadIndices(t *testing.T) {
	w, m := trainedModel(t)
	if _, err := m.Evaluate(w, nil); err == nil {
		t.Fatal("empty index list should fail")
	}
	if _, err := m.Evaluate(w, []int{w.Size()}); err == nil {
		t.Fatal("out-of-range index should fail")
	}
	if _, err := m.Evaluate(w, []int{-1}); err == nil {
		t.Fatal("negative index should fail")
	}
}

func TestExplainIndexContract(t *testing.T) {
	w, m := trainedModel(t)
	rep, err := m.Evaluate(w, m.TestPairs())
	if err != nil {
		t.Fatal(err)
	}
	// Every ranked pair explains with ok=true and a non-empty decomposition.
	why, ok := rep.ExplainIndex(rep.Ranking[0].PairIndex)
	if !ok || len(why) == 0 {
		t.Fatalf("ranked pair: ok=%v len=%d, want true and non-empty", ok, len(why))
	}
	// A pair outside the evaluation is distinguishable: ok=false, nil lines.
	why, ok = rep.ExplainIndex(-1)
	if ok || why != nil {
		t.Fatalf("unknown pair: ok=%v why=%v, want false and nil", ok, why)
	}
	// Explain keeps the documented nil contract.
	if got := rep.Explain(RankedPair{PairIndex: -1}); got != nil {
		t.Fatalf("Explain of unknown pair = %v, want nil", got)
	}
}

// TestScoreConcurrent hammers one shared model from many goroutines mixing
// Score, ScoreBatch and ExplainPair; run under -race via `make race`.
func TestScoreConcurrent(t *testing.T) {
	w, m := trainedModel(t)
	pairs := freshPairs(w, 32)
	want, err := m.ScoreBatch(pairs)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				if g%2 == 0 {
					got, err := m.ScoreBatch(pairs)
					if err != nil {
						errs <- err
						return
					}
					for i := range got {
						if got[i] != want[i] {
							errs <- errors.New("concurrent ScoreBatch diverged")
							return
						}
					}
				} else {
					for i, p := range pairs {
						s, err := m.Score(p)
						if err != nil {
							errs <- err
							return
						}
						if s != want[i] {
							errs <- errors.New("concurrent Score diverged")
							return
						}
					}
					if _, err := m.ExplainPair(pairs[g%len(pairs)]); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestScoreBatchConcurrent is the -race gate's dedicated scoring-
// concurrency test: many goroutines share one model and one batch shape.
func TestScoreBatchConcurrent(t *testing.T) {
	w, m := trainedModel(t)
	pairs := freshPairs(w, 64)
	var wg sync.WaitGroup
	results := make([][]PairScore, 6)
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r, err := m.ScoreBatch(pairs)
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = r
		}(g)
	}
	wg.Wait()
	for g := 1; g < len(results); g++ {
		for i := range results[g] {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d pair %d diverged", g, i)
			}
		}
	}
}

func TestScoreRejectsArityMismatch(t *testing.T) {
	w, m := trainedModel(t)
	l, r := w.PairValues(0)
	short := Pair{Left: l[:len(l)-1], Right: r}
	if _, err := m.Score(short); err == nil {
		t.Fatal("Score should reject a pair missing an attribute value")
	}
	if _, err := m.ScoreBatch([]Pair{{Left: l, Right: r}, short}); err == nil {
		t.Fatal("ScoreBatch should reject a malformed pair")
	} else if !strings.Contains(err.Error(), "pair 1") {
		t.Fatalf("error %q should name the offending pair", err)
	}
	if _, err := m.ExplainPair(Pair{Left: nil, Right: r}); err == nil {
		t.Fatal("ExplainPair should reject a pair with no values")
	}
}

func TestSplitAccessorsReturnCopies(t *testing.T) {
	w, m := trainedModel(t)
	idx := m.TestPairs()
	for i := range idx {
		idx[i] = -1
	}
	if fresh := m.TestPairs(); len(fresh) > 0 && fresh[0] == -1 {
		t.Fatal("mutating TestPairs' result corrupted the model's split")
	}
	if _, err := m.Evaluate(w, m.TestPairs()); err != nil {
		t.Fatalf("evaluation after caller-side mutation: %v", err)
	}
}

func TestActiveLearnCtxCancellation(t *testing.T) {
	w, err := Generate("DS", 0.03, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = ActiveLearnCtx(ctx, w, ActiveOptions{Rounds: 2, InitialSize: 64, BatchSize: 32, Seed: 5})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a context.Canceled chain", err)
	}
}
