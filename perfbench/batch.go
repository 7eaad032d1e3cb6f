package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"

	learnrisk "repro"
	"repro/perfbench/trace"
)

// The train-batch workload: the cmd/learnrisk path on the AG profile at
// scale 0.5 (7,042 records), written as two table CSVs that LoadCSV, given
// no pairs file, token-blocks into 67,177 candidate pairs; RunCtx then runs
// with default Options. This is one fixed experiment, as the paper runs on
// a fixed dataset: over data seeds 1-10 blocking gave 55k to 73k pairs,
// and over Options seeds 1-4 the split and training moved the batch's CPU
// per pair by 13%, so a seeded input would measure the data, not the
// program. The workload seed picks only the pairs the score ladder is
// timed on.
const (
	batchProfile  = "AG"
	batchScale    = 0.5
	batchDataSeed = 1
	// batchSetups and servingSetups are how many times a run sets up, so
	// setup_s is a median; the batch set-up takes tens of milliseconds.
	batchSetups   = 7
	servingSetups = 3
	// ladderPairs bounds the pairs the score ladder is timed on.
	ladderPairs = 2000
)

// batchChildArg makes the binary run one batch in a fresh process and print
// its batchStats as JSON: the process doing the work is measured alone, and
// no batch inherits another's heap.
const batchChildArg = "batch-child"

// batchStats is one child batch's measurements.
type batchStats struct {
	WallS      float64            `json:"wall_s"`
	CPUS       float64            `json:"cpu_s"`
	PeakRSSMiB float64            `json:"peak_rss_mib"`
	Pairs      int                `json:"pairs"`
	AUROC      float64            `json:"auroc"`
	Problems   []string           `json:"problems"`
	Layers     map[string]float64 `json:"layers,omitempty"`
}

func runTrainBatch(rc runCtx) (*outcome, error) {
	var setups []float64
	var tb tables
	for i := 0; i < batchSetups; i++ {
		t0 := time.Now()
		var err error
		if tb, err = writeTables(rc.dir, batchProfile, batchScale, batchDataSeed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out := &outcome{values: map[string]float64{"setup_s": median(setups)}}

	if rc.trace {
		st, err := runBatchChild(rc, tb, true)
		if err != nil {
			return nil, err
		}
		out.attempted = 1
		for _, p := range st.Problems {
			out.fail("%s", p)
		}
		for k, v := range st.Layers {
			out.values[k] = v
		}
		zeroServingLayers(out.values)
		return out, nil
	}

	// Batches run back to back while another fits in the measured time.
	var walls, cpus, rss []float64
	start := time.Now()
	for len(walls) == 0 || time.Since(start).Seconds()+median(walls) <= rc.seconds.Seconds() {
		st, err := runBatchChild(rc, tb, false)
		if err != nil {
			return nil, err
		}
		out.attempted++
		for _, p := range st.Problems {
			out.fail("%s", p)
		}
		walls = append(walls, st.WallS)
		cpus = append(cpus, st.CPUS/float64(st.Pairs))
		rss = append(rss, st.PeakRSSMiB)
		out.values["auroc"] = st.AUROC
	}
	out.values["latency_p50_ms"] = median(walls) * 1000
	out.values["cpu_ms_per_op"] = median(cpus) * 1000
	out.values["peak_rss_mib"] = slices.Max(rss)
	return out, nil
}

// runBatchChild runs one batch in a child process of this binary.
func runBatchChild(rc runCtx, tb tables, traced bool) (*batchStats, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{batchChildArg, "-left", tb.left, "-right", tb.right, "-profile", tb.name, "-seed", fmt.Sprint(rc.seed)}
	if traced {
		args = append(args, "-trace", "-spans", filepath.Join(rc.root, buildDir, fmt.Sprintf("spans-train-batch-seed%d.jsonl", rc.seed)))
	}
	cmd := exec.CommandContext(rc.ctx, self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("batch child: %w", err)
	}
	var st batchStats
	if err := json.Unmarshal(stdout.Bytes(), &st); err != nil {
		return nil, fmt.Errorf("batch child output: %w", err)
	}
	return &st, nil
}

// batchChild is the child process: LoadCSV plus RunCtx through the facade,
// timed, with the report checked; traced, it then runs the layer-by-layer
// composition and the score ladder.
func batchChild(args []string) error {
	fl := flag.NewFlagSet(batchChildArg, flag.ContinueOnError)
	left := fl.String("left", "", "left table CSV")
	right := fl.String("right", "", "right table CSV")
	profile := fl.String("profile", "", "profile whose schema the tables carry")
	seed := fl.Uint64("seed", 1, "workload seed: picks the score ladder's pairs")
	traced := fl.Bool("trace", false, "run the traced composition and the score ladder")
	spans := fl.String("spans", "", "traced: write spans to this file")
	if err := fl.Parse(args); err != nil {
		return err
	}
	attrs := profileAttrs[*profile]
	ctx := context.Background()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := selfCPU()
	t0 := time.Now()
	w, err := learnrisk.LoadCSV(*profile, *left, *right, "", attrs)
	if err != nil {
		return err
	}
	rep, err := learnrisk.RunCtx(ctx, w, learnrisk.Options{})
	if err != nil {
		return err
	}
	wall := time.Since(t0)
	cpu := selfCPU() - cpu0
	runtime.ReadMemStats(&ms1)

	st := batchStats{WallS: wall.Seconds(), CPUS: cpu.Seconds(), Pairs: w.Size(), AUROC: rep.AUROC}
	st.Problems = checkReport(rep)
	if *traced {
		if st.Layers, err = tracedBatch(ctx, *left, *right, *profile, attrs, *seed, rep, wall, *spans); err != nil {
			st.Problems = append(st.Problems, err.Error())
			st.Layers = map[string]float64{}
		}
		ops := float64(w.Size())
		st.Layers["runtime.gc_per_kop"] = float64(ms1.NumGC-ms0.NumGC) / ops * 1000
		st.Layers["runtime.alloc_kib_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / ops / 1024
		st.Layers["runtime.gc_pause_ms"] = ratio(float64(ms1.PauseTotalNs-ms0.PauseTotalNs), float64(ms1.NumGC-ms0.NumGC)) / 1e6
	}
	if st.PeakRSSMiB, err = peakRSSMiB("self"); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(st)
}

// checkReport recomputes the report's AUROC from its ranking (Risk against
// Mislabeled) and checks that the ranking is the test split in risk order.
func checkReport(rep *learnrisk.Report) []string {
	var problems []string
	risks := make([]float64, len(rep.Ranking))
	bad := make([]bool, len(rep.Ranking))
	byPair := make(map[int]float64, len(rep.Ranking))
	mislabels := 0
	for i, rp := range rep.Ranking {
		risks[i], bad[i] = rp.Risk, rp.Mislabeled
		byPair[rp.PairIndex] = rp.Risk
		if rp.Mislabeled {
			mislabels++
		}
		if rp.Match != (rp.Prob >= 0.5) {
			problems = append(problems, fmt.Sprintf("ranked pair %d: label %v for prob %v", rp.PairIndex, rp.Match, rp.Prob))
		}
	}
	if got := auroc(risks, bad); got != rep.AUROC {
		problems = append(problems, fmt.Sprintf("AUROC recomputed from the ranking is %v, report says %v", got, rep.AUROC))
	}
	if mislabels != rep.Mislabels {
		problems = append(problems, fmt.Sprintf("ranking has %d mislabeled pairs, report says %d", mislabels, rep.Mislabels))
	}
	test := rep.Model().TestPairs()
	if len(byPair) != len(test) || len(rep.Ranking) != len(test) {
		return append(problems, fmt.Sprintf("ranking has %d pairs (%d distinct), the test split %d", len(rep.Ranking), len(byPair), len(test)))
	}
	for _, i := range test {
		if _, ok := byPair[i]; !ok {
			return append(problems, fmt.Sprintf("test pair %d is missing from the ranking", i))
		}
	}
	sort.SliceStable(test, func(a, b int) bool { return byPair[test[a]] > byPair[test[b]] })
	for k, i := range test {
		if rep.Ranking[k].PairIndex != i {
			return append(problems, fmt.Sprintf("ranking position %d holds pair %d, the test split in risk order has %d", k, rep.Ranking[k].PairIndex, i))
		}
	}
	return problems
}

// auroc is the Mann-Whitney AUROC with midranks for ties. Midranks are
// multiples of 1/2, so the rank sum is exact and the result does not depend
// on the order of tied scores.
func auroc(scores []float64, positive []bool) float64 {
	idx := make([]int, len(scores))
	var nPos, nNeg float64
	for i := range idx {
		idx[i] = i
		if positive[i] {
			nPos++
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return 0.5
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	rankSum := 0.0
	for i := 0; i < len(idx); {
		j := i
		for j < len(idx) && scores[idx[j]] == scores[idx[i]] {
			j++
		}
		mid := float64(i+1+j) / 2
		for k := i; k < j; k++ {
			if positive[idx[k]] {
				rankSum += mid
			}
		}
		i = j
	}
	return (rankSum - nPos*(nPos+1)/2) / (nPos * nNeg)
}

// tracedBatch runs the traced composition on the same tables, checks it
// against the facade's report, and times the score ladder on a seeded
// sample of the test pairs.
func tracedBatch(ctx context.Context, left, right, profile string, attrs []learnrisk.Attr, seed uint64, rep *learnrisk.Report, facadeWall time.Duration, spans string) (map[string]float64, error) {
	runtime.GC()
	rec := trace.NewRecorder()
	t0 := time.Now()
	got, model, layers, err := trace.Batch(ctx, rec, profile, left, right, attrs)
	if err != nil {
		return nil, err
	}
	tracedWall := time.Since(t0)
	if d := trace.Diff(got, trace.FromFacade(rep)); d != "" {
		return nil, fmt.Errorf("traced composition differs from the facade report: %s", d)
	}
	layers["obs.overhead_frac"] = tracedWall.Seconds()/facadeWall.Seconds() - 1

	w, err := learnrisk.LoadCSV(profile, left, right, "", attrs)
	if err != nil {
		return nil, err
	}
	test := rep.Model().TestPairs()
	pairs := make([]learnrisk.Pair, 0, ladderPairs)
	for i := 0; i < ladderPairs && i < len(test); i++ {
		l, r := w.PairValues(test[mix64(seed, uint64(i))%uint64(len(test))])
		pairs = append(pairs, learnrisk.Pair{Left: l, Right: r})
	}
	ladder, err := trace.Ladder(model, rep.Model(), pairs)
	if err != nil {
		return nil, err
	}
	for k, v := range ladder {
		layers[k] = v
	}
	if spans != "" {
		if err := rec.WriteSpans(spans); err != nil {
			return nil, err
		}
	}
	return layers, nil
}

// selfCPU is this process's user plus system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
