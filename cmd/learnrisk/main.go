// Command learnrisk runs the risk-analysis pipeline on a workload and
// prints the ranked risky pairs with their interpretable explanations.
// The trained artifact can be saved and reloaded, so a model trains once
// and serves later runs:
//
//	learnrisk -profile DS -scale 0.05 -top 10
//	learnrisk -profile DS -scale 0.05 -save model.json
//	learnrisk -profile DS -scale 0.05 -load model.json
//	learnrisk -left l.csv -right r.csv -pairs p.csv -attrs "title:text,year:numeric"
//
// Training honors Ctrl-C: cancellation is checked between epochs and the
// command exits with the context error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	learnrisk "repro"
)

func main() {
	var (
		profile  = flag.String("profile", "DS", "synthetic profile: DS|AB|AG|SG|DA (ignored when -left is set)")
		scale    = flag.Float64("scale", 0.05, "synthetic dataset scale")
		seed     = flag.Uint64("seed", 1, "random seed")
		top      = flag.Int("top", 10, "number of risky pairs to print")
		ratio    = flag.String("ratio", "3:2:5", "train:validation:test split ratio")
		left     = flag.String("left", "", "left table CSV (id,entity_id,attrs...)")
		right    = flag.String("right", "", "right table CSV")
		pairs    = flag.String("pairs", "", "pairs CSV (left_id,right_id,match); empty = token blocking")
		attrs    = flag.String("attrs", "", `schema as "name:type,..." with type in entity-name|entity-set|text|numeric|categorical`)
		rules    = flag.Bool("rules", false, "also print the generated risk features")
		leipzig  = flag.String("leipzig", "", "load a real Leipzig benchmark: dblp-scholar|abt-buy|amazon-google (uses -left, -right and -pairs as the three published files)")
		savePath = flag.String("save", "", "save the trained model artifact to this path")
		loadPath = flag.String("load", "", "load a model artifact instead of training; the workload is scored with it")
		progress = flag.Bool("progress", false, "print training progress to stderr")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var w *learnrisk.Workload
	var err error
	if *leipzig != "" {
		w, err = learnrisk.LoadLeipzig(*leipzig, *left, *right, *pairs)
	} else {
		w, err = loadWorkload(*profile, *scale, *seed, *left, *right, *pairs, *attrs)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("workload %s: %d pairs, %d matches, %d attributes\n",
		w.Name(), w.Size(), w.Matches(), w.Attributes())

	rep, err := obtainReport(ctx, w, *loadPath, *ratio, *seed, *progress)
	if err != nil {
		fatal(err)
	}
	if *savePath != "" {
		if err := saveModel(rep.Model(), *savePath); err != nil {
			fatal(err)
		}
		fmt.Printf("model saved to %s (fingerprint %.12s)\n", *savePath, rep.Model().Fingerprint())
	}
	fmt.Printf("classifier: F1=%.3f accuracy=%.3f mislabels=%d/%d\n",
		rep.ClassifierF1, rep.ClassifierAccuracy, rep.Mislabels, len(rep.Ranking))
	fmt.Printf("risk model: %d features, coverage %.2f, AUROC=%.3f\n\n",
		rep.NumFeatures, rep.RuleCoverage, rep.AUROC)

	if *rules {
		fmt.Println("risk features:")
		for _, r := range rep.Features() {
			fmt.Println("  " + r)
		}
		fmt.Println()
	}

	names := w.AttrNames()
	n := *top
	if n > len(rep.Ranking) {
		n = len(rep.Ranking)
	}
	for rank, rp := range rep.Ranking[:n] {
		status := "correct"
		if rp.Mislabeled {
			status = "MISLABELED"
		}
		label := "unmatching"
		if rp.Match {
			label = "matching"
		}
		fmt.Printf("#%d risk=%.3f machine=%s (p=%.3f) ground-truth: %s\n",
			rank+1, rp.Risk, label, rp.Prob, status)
		l, r := w.PairValues(rp.PairIndex)
		for a := range names {
			fmt.Printf("    %-12s | %-34s | %s\n", names[a], clip(l[a], 34), clip(r[a], 34))
		}
		why, _ := rep.ExplainIndex(rp.PairIndex)
		for _, line := range why[:minInt(3, len(why))] {
			fmt.Println("    why: " + line)
		}
		fmt.Println()
	}
}

// obtainReport trains a fresh model and evaluates its test split (RunCtx),
// or loads a saved artifact and evaluates the whole workload against it.
func obtainReport(ctx context.Context, w *learnrisk.Workload, loadPath, ratio string, seed uint64, progress bool) (*learnrisk.Report, error) {
	if loadPath != "" {
		f, err := os.Open(loadPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		model, err := learnrisk.Load(f)
		if err != nil {
			return nil, err
		}
		fmt.Printf("loaded model %s (fingerprint %.12s)\n", loadPath, model.Fingerprint())
		all := make([]int, w.Size())
		for i := range all {
			all[i] = i
		}
		return model.Evaluate(w, all)
	}
	opts := learnrisk.Options{SplitRatio: ratio, Seed: seed}
	if progress {
		opts.Progress = func(stage string, done, total int) {
			if done == total || done%200 == 0 {
				fmt.Fprintf(os.Stderr, "  %s: %d/%d\n", stage, done, total)
			}
		}
	}
	return learnrisk.RunCtx(ctx, w, opts)
}

func saveModel(m *learnrisk.Model, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Save(f); err != nil {
		_ = f.Close() // best-effort: the save error is the one to report
		return err
	}
	return f.Close()
}

func loadWorkload(profile string, scale float64, seed uint64, left, right, pairs, attrs string) (*learnrisk.Workload, error) {
	if left == "" {
		return learnrisk.Generate(profile, scale, seed)
	}
	if right == "" || attrs == "" {
		return nil, fmt.Errorf("-left requires -right and -attrs")
	}
	var schema []learnrisk.Attr
	for _, part := range strings.Split(attrs, ",") {
		nt := strings.SplitN(strings.TrimSpace(part), ":", 2)
		if len(nt) != 2 {
			return nil, fmt.Errorf("bad attr spec %q", part)
		}
		schema = append(schema, learnrisk.Attr{Name: nt[0], Type: nt[1]})
	}
	return learnrisk.LoadCSV("csv", left, right, pairs, schema)
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "learnrisk:", err)
	os.Exit(1)
}
