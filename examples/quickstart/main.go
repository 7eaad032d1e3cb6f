// Quickstart: train a LearnRisk model once, evaluate it on the held-out
// split, risk-score a fresh pair, and round-trip the artifact through
// Save/Load — the train→score→persist shape of the redesigned API.
//
//	go run ./examples/quickstart
//
// The saved artifact is what cmd/serve puts behind the HTTP scoring API
// (hot-swappable): `go run ./cmd/serve -model model.json`.
// See examples/serving for the service under concurrent load.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	learnrisk "repro"
)

func main() {
	// A bibliographic ER workload shaped like DBLP-Scholar, at 5% of the
	// paper's Table 2 size.
	w, err := learnrisk.Generate("DS", 0.05, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %d candidate pairs, %d true matches\n", w.Size(), w.Matches())

	// Train builds the reusable artifact: classifier, interpretable risk
	// features, and the fitted risk model. The context cancels training
	// between epochs if needed.
	model, err := learnrisk.Train(context.Background(), w, learnrisk.Options{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}

	// Evaluate reproduces the paper's protocol on the test split.
	report, err := model.Evaluate(w, model.TestPairs())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("classifier F1: %.3f (%d mislabels among %d test pairs)\n",
		report.ClassifierF1, report.Mislabels, len(report.Ranking))
	fmt.Printf("risk ranking AUROC: %.3f with %d risk features\n\n",
		report.AUROC, report.NumFeatures)

	fmt.Println("five riskiest pairs:")
	for i, rp := range report.Ranking[:5] {
		verdict := "correctly labeled"
		if rp.Mislabeled {
			verdict = "actually MISLABELED"
		}
		fmt.Printf("%d. risk=%.3f classifier output=%.3f — %s\n", i+1, rp.Risk, rp.Prob, verdict)
		why, _ := report.ExplainIndex(rp.PairIndex)
		if len(why) > 2 {
			why = why[:2]
		}
		for _, line := range why {
			fmt.Println("     " + line)
		}
	}

	// The serving path scores fresh pairs — no ground truth, no retraining.
	left, right := w.PairValues(report.Ranking[0].PairIndex)
	score, err := model.Score(learnrisk.Pair{Left: left, Right: right})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nserving one fresh pair: prob=%.3f match=%v risk=%.3f\n",
		score.Prob, score.Match, score.Risk)

	// Save/Load: the artifact is self-contained and scores bit-identically
	// after a round trip.
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		log.Fatal(err)
	}
	loaded, err := learnrisk.Load(&buf)
	if err != nil {
		log.Fatal(err)
	}
	score2, err := loaded.Score(learnrisk.Pair{Left: left, Right: right})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after Save/Load round trip:  prob=%.3f match=%v risk=%.3f (identical: %v)\n",
		score2.Prob, score2.Match, score2.Risk, score == score2)
}
