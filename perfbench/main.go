// Command perfbench is the repository's benchmark. It measures LearnRisk the
// two ways people use it, offline risk analysis of a candidate set and the
// cmd/serve service under open-loop load, and attributes each end-to-end
// figure to the layers beneath it in a separate traced run.
//
// Run it from the repository root through its wrapper, which builds it with
// a build cache inside the checkout:
//
//	bash perfbench/run.sh --workload train-batch --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with no tracing; --trace 1 runs
// the traced pass and reports the per-layer metrics. The last line of
// standard output is one JSON object {correct, attempted, failed, metrics};
// a human-readable table goes to standard error. README.md in this
// directory records each workload's inputs and each metric's meaning.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runCtx is what every workload runner gets.
type runCtx struct {
	ctx     context.Context // canceled on SIGINT or SIGTERM
	seed    uint64
	seconds time.Duration
	trace   bool
	dir     string // per-run scratch directory inside the checkout
	root    string // checkout root
}

// outcome is what a workload runner returns: every metric of the mode it
// ran in, the op accounting, and the reasons any output check failed.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	problems  []string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var runners = map[string]func(rc runCtx) (*outcome, error){
	"train-batch":    runTrainBatch,
	"score-single":   runScoreSingle,
	"resolve-ingest": runResolveIngest,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == batchChildArg {
		if err := batchChild(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench batch child:", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "workload to run: train-batch, score-single or resolve-ingest")
	seed := flag.Uint64("seed", 1, "workload seed: the inputs are generated from it")
	seconds := flag.Int("seconds", 30, "measured time of one run")
	trace := flag.Int("trace", 0, "0 measures the end-to-end metrics, 1 runs the traced pass for the per-layer metrics")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds, trace int) error {
	runner, ok := runners[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("want --seconds >= 1 and --trace 0 or 1, got %d and %d", seconds, trace)
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	spec, err := checkSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(filepath.Join(root, buildDir), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	out, err := runner(runCtx{ctx: ctx, seed: seed, seconds: time.Duration(seconds) * time.Second, trace: trace == 1, dir: dir, root: root})
	if err != nil {
		return err
	}
	if ctx.Err() != nil {
		return fmt.Errorf("interrupted: %w", ctx.Err())
	}
	want := spec.EndToEnd
	if trace == 1 {
		want = spec.PerLayer
	}
	res := result{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for _, m := range want {
		v, ok := out.values[m.Name]
		if !ok && len(out.problems) == 0 {
			return fmt.Errorf("workload %s did not measure %s", workload, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("workload %s measured %s = %v", workload, m.Name, v)
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("workload %s attempted no operations", workload)
	}
	printTable(workload, out, want)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("output checks failed: %s", strings.Join(out.problems, "; "))
	}
	return nil
}

// printTable writes every value the run measured to standard error, the
// reported metrics first, by name and with units.
func printTable(workload string, out *outcome, reported []specMetric) {
	fmt.Fprintf(os.Stderr, "workload %s: attempted %d, failed %d\n", workload, out.attempted, out.failed)
	seen := map[string]bool{}
	for _, m := range reported {
		seen[m.Name] = true
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", m.Name, out.values[m.Name], m.Unit)
	}
	var extra []string
	for name := range out.values {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g\n", name, out.values[name])
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "  check failed:", p)
	}
}
