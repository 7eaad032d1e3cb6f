// Benchmarks regenerating every table and figure of the paper's evaluation
// (Table 2 and Figures 9-14), plus ablation benches for the risk model's
// design decisions: the variance term, truncated inference, one-sided rules
// and the rule features themselves. Besides wall-clock time, the experiment
// benches report the headline quality number of their figure as a custom
// "AUROC" (or "F1x100") metric so `go test -bench .` reproduces the paper's
// numbers alongside the timings.
package learnrisk_test

import (
	"errors"
	"testing"

	learnrisk "repro"
	"repro/internal/active"
	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dtree"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/rules"
)

// benchSettings sizes the experiment benches: Quick-scale by default so the
// full suite completes in minutes; raise -benchtime or edit here for
// paper-scale runs (cmd/experiments is the tool for those).
func benchSettings(seed uint64) experiments.Settings {
	s := experiments.Quick()
	s.Scale = 0.03
	s.Seed = seed
	return s
}

// BenchmarkTable2DatasetGeneration regenerates the Table 2 datasets.
func BenchmarkTable2DatasetGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(benchSettings(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9Comparative runs one Figure 9 panel (DS at 3:2:5) with all
// five methods and reports LearnRisk's AUROC.
func BenchmarkFig9Comparative(b *testing.B) {
	var auroc float64
	for i := 0; i < b.N; i++ {
		cell, err := experiments.Fig9Cell("DS", "3:2:5", benchSettings(2))
		if err != nil {
			b.Fatal(err)
		}
		auroc = cell.AUROC["LearnRisk"]
	}
	b.ReportMetric(auroc, "AUROC")
}

// BenchmarkFig10OOD runs the DA2DS out-of-distribution panel.
func BenchmarkFig10OOD(b *testing.B) {
	var auroc float64
	for i := 0; i < b.N; i++ {
		cell, err := experiments.Fig10("DA2DS", benchSettings(3))
		if err != nil {
			b.Fatal(err)
		}
		auroc = cell.AUROC["LearnRisk"]
	}
	b.ReportMetric(auroc, "AUROC")
}

// BenchmarkFig11HoloClean runs the HoloClean comparison on DS subsets.
func BenchmarkFig11HoloClean(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11("DS", 200, 2, benchSettings(4))
		if err != nil {
			b.Fatal(err)
		}
		gap = res.LearnRisk - res.HoloClean
	}
	b.ReportMetric(gap, "AUROC-gap")
}

// BenchmarkFig12Sensitivity runs the risk-training-size sweep on DS.
func BenchmarkFig12Sensitivity(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig12Random("DS", []float64{0.01, 0.20}, benchSettings(5))
		if err != nil {
			b.Fatal(err)
		}
		spread = pts[len(pts)-1].AUROC - pts[0].AUROC
	}
	// The paper's finding is near-flatness: the spread should be small.
	b.ReportMetric(spread, "AUROC-spread")
}

// BenchmarkFig13RuleGen times one-sided rule generation (Figure 13a's
// subject) directly.
func BenchmarkFig13RuleGen(b *testing.B) {
	lab, err := experiments.NewLab("DS", "7:1:2", benchSettings(6))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dtree.GenerateRiskFeatures(lab.TrainX, lab.TrainY, lab.Cat.Names(), lab.Settings.RuleGen)
	}
}

// BenchmarkFig13RiskTraining times risk-model training (Figure 13b's
// subject) directly.
func BenchmarkFig13RiskTraining(b *testing.B) {
	lab, err := experiments.NewLab("DS", "3:5:2", benchSettings(7))
	if err != nil {
		b.Fatal(err)
	}
	rs, sts := lab.GenerateFeatures()
	insts, bad := core.BuildInstances(compileRules(b, lab, rs).Apply(lab.ValidX), lab.ValidLab)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model, err := core.New(core.BuildFeatures(rs, sts), core.Config{
			Epochs: lab.Settings.RiskEpochs, Seed: lab.Settings.Seed,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := model.Fit(insts, bad); err != nil && !errors.Is(err, core.ErrNoTrainingSignal) {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig14ActiveLearning runs one shortened Figure 14 loop and
// reports the final F1 of the LearnRisk selector.
func BenchmarkFig14ActiveLearning(b *testing.B) {
	var f1 float64
	for i := 0; i < b.N; i++ {
		curves, err := experiments.Fig14("DS", benchSettings(8), active.Config{
			InitialSize: 48, BatchSize: 24, Rounds: 2,
			Classifier: classifier.Config{Epochs: 10},
			RuleGen:    dtree.OneSidedConfig{MaxDepth: 2, BranchFactor: 3},
			Seed:       8,
		})
		if err != nil {
			b.Fatal(err)
		}
		curve := curves[string(active.LearnRisk)]
		f1 = curve[len(curve)-1].F1
	}
	b.ReportMetric(f1*100, "F1x100")
}

// --- ablation benches (one design decision of the risk model each) ---

// ablationLab prepares one shared setup for the ablation benches.
func ablationLab(b *testing.B) (*experiments.Lab, []rules.Rule, []rules.Stat) {
	b.Helper()
	lab, err := experiments.NewLab("DS", "3:2:5", benchSettings(9))
	if err != nil {
		b.Fatal(err)
	}
	rs, sts := lab.GenerateFeatures()
	return lab, rs, sts
}

func runRiskVariant(b *testing.B, lab *experiments.Lab, rs []rules.Rule, sts []rules.Stat, cfg core.Config) float64 {
	b.Helper()
	cfg.Epochs = lab.Settings.RiskEpochs
	cfg.Seed = lab.Settings.Seed
	model, err := core.New(core.BuildFeatures(rs, sts), cfg)
	if err != nil {
		b.Fatal(err)
	}
	rset := compileRules(b, lab, rs)
	validInsts, validBad := core.BuildInstances(rset.Apply(lab.ValidX), lab.ValidLab)
	if err := model.Fit(validInsts, validBad); err != nil && !errors.Is(err, core.ErrNoTrainingSignal) {
		b.Fatal(err)
	}
	testInsts, testBad := core.BuildInstances(rset.Apply(lab.TestX), lab.TestLab)
	return eval.AUROC(model.RiskAll(testInsts), testBad)
}

// compileRules compiles rs over the lab's metric width, failing the
// benchmark on a schema/rule mismatch.
func compileRules(b *testing.B, lab *experiments.Lab, rs []rules.Rule) *rules.RuleSet {
	b.Helper()
	rset, err := rules.Compile(rs, len(lab.Cat.Metrics))
	if err != nil {
		b.Fatal(err)
	}
	return rset
}

// BenchmarkAblationNoVariance drops the sigma term (risk = expectation
// only), quantifying the paper's fluctuation-risk argument.
func BenchmarkAblationNoVariance(b *testing.B) {
	lab, rs, sts := ablationLab(b)
	var full, ablated float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		full = runRiskVariant(b, lab, rs, sts, core.Config{})
		ablated = runRiskVariant(b, lab, rs, sts, core.Config{NoVariance: true})
	}
	b.ReportMetric(full, "AUROC-full")
	b.ReportMetric(ablated, "AUROC-novariance")
}

// BenchmarkAblationTruncatedInference compares truncated-normal scoring
// with the smooth surrogate used during training.
func BenchmarkAblationTruncatedInference(b *testing.B) {
	lab, rs, sts := ablationLab(b)
	var truncated, surrogate float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		truncated = runRiskVariant(b, lab, rs, sts, core.Config{})
		surrogate = runRiskVariant(b, lab, rs, sts, core.Config{UntruncatedInference: true})
	}
	b.ReportMetric(truncated, "AUROC-truncated")
	b.ReportMetric(surrogate, "AUROC-surrogate")
}

// BenchmarkAblationTwoSidedRules swaps the one-sided risk features for
// two-sided CART-forest labeling rules (Section 7.3's finding: two-sided
// rules have limited efficacy for risk).
func BenchmarkAblationTwoSidedRules(b *testing.B) {
	lab, oneSided, oneStats := ablationLab(b)
	rows := make([]int, len(lab.TrainX))
	for i := range rows {
		rows[i] = i
	}
	forest := dtree.BuildForest(lab.TrainX, lab.TrainY, rows, lab.Cat.Names(), 10,
		dtree.CARTConfig{MaxDepth: 3, Seed: 9})
	twoSided := forest.Rules()
	twoStats := compileRules(b, lab, twoSided).Stats(lab.TrainX, lab.TrainY)
	var one, two float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one = runRiskVariant(b, lab, oneSided, oneStats, core.Config{})
		two = runRiskVariant(b, lab, twoSided, twoStats, core.Config{})
	}
	b.ReportMetric(one, "AUROC-onesided")
	b.ReportMetric(two, "AUROC-twosided")
}

// BenchmarkAblationNoRuleFeatures keeps only the classifier-output feature
// (no interpretable rules), which degenerates toward the Baseline method.
func BenchmarkAblationNoRuleFeatures(b *testing.B) {
	lab, rs, sts := ablationLab(b)
	var withRules, without float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		withRules = runRiskVariant(b, lab, rs, sts, core.Config{})
		without = runRiskVariant(b, lab, nil, nil, core.Config{})
	}
	b.ReportMetric(withRules, "AUROC-withrules")
	b.ReportMetric(without, "AUROC-norules")
}

// BenchmarkPipelineEndToEnd times the whole public-API pipeline once per
// iteration (the quickstart path).
func BenchmarkPipelineEndToEnd(b *testing.B) {
	w, err := generateBench()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runBench(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRiskScoring measures per-pair scoring throughput of a trained
// model (the serving-time cost of risk analysis).
func BenchmarkRiskScoring(b *testing.B) {
	lab, rs, sts := ablationLab(b)
	model, err := core.New(core.BuildFeatures(rs, sts), core.Config{Epochs: 50, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	rset := compileRules(b, lab, rs)
	validInsts, validBad := core.BuildInstances(rset.Apply(lab.ValidX), lab.ValidLab)
	if err := model.Fit(validInsts, validBad); err != nil && !errors.Is(err, core.ErrNoTrainingSignal) {
		b.Fatal(err)
	}
	testInsts, _ := core.BuildInstances(rset.Apply(lab.TestX), lab.TestLab)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Risk(testInsts[i%len(testInsts)])
	}
}

// BenchmarkRuleEvaluation measures rule-firing throughput (feature
// extraction at serving time).
func BenchmarkRuleEvaluation(b *testing.B) {
	lab, rs, _ := ablationLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := lab.TestX[i%len(lab.TestX)]
		for j := range rs {
			rs[j].Fires(x)
		}
	}
}

// BenchmarkTriageQuality measures the human-machine cooperation payoff: the
// fraction of mislabels a 10% verification budget corrects when spent in
// risk order (r-HUMO application; paper Section 1).
func BenchmarkTriageQuality(b *testing.B) {
	w, err := generateBench()
	if err != nil {
		b.Fatal(err)
	}
	rep, err := runBench(w)
	if err != nil {
		b.Fatal(err)
	}
	var yield float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := rep.Triage(len(rep.Ranking) / 10)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Mislabels > 0 {
			yield = float64(o.Corrected) / float64(rep.Mislabels)
		}
	}
	b.ReportMetric(yield, "mislabels-caught-frac")
}

func generateBench() (*learnrisk.Workload, error) {
	return learnrisk.Generate("DS", 0.02, 10)
}

func runBench(w *learnrisk.Workload) (*learnrisk.Report, error) {
	return learnrisk.Run(w, learnrisk.Options{RiskEpochs: 150, ClassifierEpochs: 15, Seed: 10})
}

// BenchmarkDatasetGeneration measures workload synthesis alone.
func BenchmarkDatasetGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := datagen.Generate(datagen.DS(uint64(i+1)), 0.03); err != nil {
			b.Fatal(err)
		}
	}
}
