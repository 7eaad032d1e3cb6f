// Benchmarks regenerating every table and figure of the paper's evaluation
// (Table 2 and Figures 9-14), plus ablation benches for the risk model's
// design decisions: the variance term, truncated inference, one-sided rules
// and the rule features themselves. Besides wall-clock time, the experiment
// benches report the headline quality number of their figure as a custom
// "AUROC" (or "F1x100") metric so `go test -bench .` reproduces the paper's
// numbers alongside the timings. Each of those benches runs its body
// through one function that TestFigureNumbers calls too, so the reported
// numbers are pinned bit for bit by `go test`.
//
//	go test -run '^$' -bench 'Fig|Ablation|Triage' -benchmem .
package learnrisk_test

import (
	"context"
	"math"
	"testing"

	learnrisk "repro"
	"repro/internal/active"
	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dtree"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/pipeline"
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

// TestFigureNumbers pins the 14 quality numbers the figure, ablation and
// triage benches report, bit for bit. Each comes from one call of its
// bench's body. The constants were recorded at 76d9265, where they agree
// with the four-digit values first committed at 6e654ee. A change to any
// of them changes a reproduced paper number, so it must be deliberate.
func TestFigureNumbers(t *testing.T) {
	lab := ablationLab(t)
	full, noVariance := ablationNoVariance(t, lab)
	truncated, surrogate := ablationTruncatedInference(t, lab)
	oneSided, twoSided := ablationTwoSidedRules(t, lab, twoSidedRules(t, lab))
	withRules, noRules := ablationNoRuleFeatures(t, lab, compileRules(t, lab, nil))
	for _, c := range []struct {
		name string
		got  float64
		want uint64
	}{
		{"Fig9Comparative AUROC", fig9AUROC(t), 0x3fef4d5a8eb44117},
		{"Fig10OOD AUROC", fig10AUROC(t), 0x3fed8c43656185bc},
		{"Fig11HoloClean AUROC-gap", fig11Gap(t), 0x3fd2db2eefc32946},
		{"Fig12Sensitivity AUROC-spread", fig12Spread(t), 0x3f8bfcde8cf94e80},
		{"Fig14ActiveLearning F1", fig14F1(t), 0x3fe0d79435e50d7a},
		{"AblationNoVariance AUROC-full", full, 0x3fef0618fc0d866a},
		{"AblationNoVariance AUROC-novariance", noVariance, 0x3feec1220b3207cd},
		{"AblationTruncatedInference AUROC-truncated", truncated, 0x3fef0618fc0d866a},
		{"AblationTruncatedInference AUROC-surrogate", surrogate, 0x3fef03fc220c6717},
		{"AblationTwoSidedRules AUROC-onesided", oneSided, 0x3fef0618fc0d866a},
		{"AblationTwoSidedRules AUROC-twosided", twoSided, 0x3fef3a027b04882d},
		{"AblationNoRuleFeatures AUROC-withrules", withRules, 0x3fef0618fc0d866a},
		{"AblationNoRuleFeatures AUROC-norules", noRules, 0x3fedf0944430f357},
		{"TriageQuality mislabels-caught-frac", triageYield(t, triageReport(t)), 0x3fdcf3cf3cf3cf3d},
	} {
		if got := math.Float64bits(c.got); got != c.want {
			t.Errorf("%s = %v (bits %#x), want %v (bits %#x)", c.name, c.got, got, math.Float64frombits(c.want), c.want)
		}
	}
}

// BenchmarkTable2DatasetGeneration regenerates the Table 2 datasets.
func BenchmarkTable2DatasetGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(benchSettings(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// fig9AUROC runs one Figure 9 panel (DS at 3:2:5) with all five methods
// and returns LearnRisk's AUROC.
func fig9AUROC(tb testing.TB) float64 {
	cell, err := experiments.Fig9Cell("DS", "3:2:5", benchSettings(2))
	if err != nil {
		tb.Fatal(err)
	}
	return cell.AUROC["LearnRisk"]
}

// BenchmarkFig9Comparative reports fig9AUROC.
func BenchmarkFig9Comparative(b *testing.B) {
	var auroc float64
	for i := 0; i < b.N; i++ {
		auroc = fig9AUROC(b)
	}
	b.ReportMetric(auroc, "AUROC")
}

// fig10AUROC runs the DA2DS out-of-distribution panel and returns
// LearnRisk's AUROC.
func fig10AUROC(tb testing.TB) float64 {
	cell, err := experiments.Fig10("DA2DS", benchSettings(3))
	if err != nil {
		tb.Fatal(err)
	}
	return cell.AUROC["LearnRisk"]
}

// BenchmarkFig10OOD reports fig10AUROC.
func BenchmarkFig10OOD(b *testing.B) {
	var auroc float64
	for i := 0; i < b.N; i++ {
		auroc = fig10AUROC(b)
	}
	b.ReportMetric(auroc, "AUROC")
}

// fig11Gap runs the HoloClean comparison on DS subsets and returns
// LearnRisk's AUROC minus HoloClean's.
func fig11Gap(tb testing.TB) float64 {
	res, err := experiments.Fig11("DS", 200, 2, benchSettings(4))
	if err != nil {
		tb.Fatal(err)
	}
	return res.LearnRisk - res.HoloClean
}

// BenchmarkFig11HoloClean reports fig11Gap.
func BenchmarkFig11HoloClean(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		gap = fig11Gap(b)
	}
	b.ReportMetric(gap, "AUROC-gap")
}

// fig12Spread runs the risk-training-size sweep on DS and returns the
// AUROC at the largest size minus the AUROC at the smallest.
func fig12Spread(tb testing.TB) float64 {
	pts, err := experiments.Fig12Random("DS", []float64{0.01, 0.20}, benchSettings(5))
	if err != nil {
		tb.Fatal(err)
	}
	return pts[len(pts)-1].AUROC - pts[0].AUROC
}

// BenchmarkFig12Sensitivity reports fig12Spread.
func BenchmarkFig12Sensitivity(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		spread = fig12Spread(b)
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
	cfg := core.Config{Epochs: lab.Settings.RiskEpochs, Seed: lab.Settings.Seed}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Fit(context.Background(), lab.Features, lab.ValidX, lab.ValidLab, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// fig14F1 runs one shortened Figure 14 loop and returns the final F1 of
// the LearnRisk selector.
func fig14F1(tb testing.TB) float64 {
	curves, err := experiments.Fig14("DS", benchSettings(8), active.Config{
		InitialSize: 48, BatchSize: 24, Rounds: 2,
		Classifier: classifier.Config{Epochs: 10},
		RuleGen:    dtree.OneSidedConfig{MaxDepth: 2, BranchFactor: 3},
		Seed:       8,
	})
	if err != nil {
		tb.Fatal(err)
	}
	curve := curves[string(active.LearnRisk)]
	return curve[len(curve)-1].F1
}

// BenchmarkFig14ActiveLearning reports fig14F1 in percent.
func BenchmarkFig14ActiveLearning(b *testing.B) {
	var f1 float64
	for i := 0; i < b.N; i++ {
		f1 = fig14F1(b)
	}
	b.ReportMetric(f1*100, "F1x100")
}

// --- ablation benches (one design decision of the risk model each) ---

// ablationLab prepares one shared setup for the ablation benches.
func ablationLab(tb testing.TB) *experiments.Lab {
	tb.Helper()
	lab, err := experiments.NewLab("DS", "3:2:5", benchSettings(9))
	if err != nil {
		tb.Fatal(err)
	}
	return lab
}

// runRiskVariant fits a risk model over f on the lab's validation part and
// returns its AUROC on the test part.
func runRiskVariant(tb testing.TB, lab *experiments.Lab, f pipeline.Features, cfg core.Config) float64 {
	tb.Helper()
	cfg.Epochs = lab.Settings.RiskEpochs
	cfg.Seed = lab.Settings.Seed
	model, err := pipeline.Fit(context.Background(), f, lab.ValidX, lab.ValidLab, cfg, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return eval.AUROC(pipeline.Risks(model, f, lab.TestX, lab.TestLab), lab.Mislabels())
}

// compileRules builds features from rs over the lab's training rows,
// failing the benchmark on a schema/rule mismatch.
func compileRules(tb testing.TB, lab *experiments.Lab, rs []rules.Rule) pipeline.Features {
	tb.Helper()
	f, err := pipeline.Compile(rs, len(lab.Cat.Metrics), lab.TrainX, lab.TrainY)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// ablationNoVariance drops the sigma term (risk = expectation only),
// quantifying the paper's fluctuation-risk argument: the AUROC with and
// without it.
func ablationNoVariance(tb testing.TB, lab *experiments.Lab) (full, ablated float64) {
	return runRiskVariant(tb, lab, lab.Features, core.Config{}),
		runRiskVariant(tb, lab, lab.Features, core.Config{NoVariance: true})
}

// BenchmarkAblationNoVariance reports ablationNoVariance.
func BenchmarkAblationNoVariance(b *testing.B) {
	lab := ablationLab(b)
	var full, ablated float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		full, ablated = ablationNoVariance(b, lab)
	}
	b.ReportMetric(full, "AUROC-full")
	b.ReportMetric(ablated, "AUROC-novariance")
}

// ablationTruncatedInference compares truncated-normal scoring with the
// smooth surrogate used during training.
func ablationTruncatedInference(tb testing.TB, lab *experiments.Lab) (truncated, surrogate float64) {
	return runRiskVariant(tb, lab, lab.Features, core.Config{}),
		runRiskVariant(tb, lab, lab.Features, core.Config{UntruncatedInference: true})
}

// BenchmarkAblationTruncatedInference reports ablationTruncatedInference.
func BenchmarkAblationTruncatedInference(b *testing.B) {
	lab := ablationLab(b)
	var truncated, surrogate float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		truncated, surrogate = ablationTruncatedInference(b, lab)
	}
	b.ReportMetric(truncated, "AUROC-truncated")
	b.ReportMetric(surrogate, "AUROC-surrogate")
}

// twoSidedRules compiles two-sided CART-forest labeling rules over the
// lab's training rows.
func twoSidedRules(tb testing.TB, lab *experiments.Lab) pipeline.Features {
	rows := make([]int, len(lab.TrainX))
	for i := range rows {
		rows[i] = i
	}
	forest := dtree.BuildForest(lab.TrainX, lab.TrainY, rows, lab.Cat.Names(), 10,
		dtree.CARTConfig{MaxDepth: 3, Seed: 9})
	return compileRules(tb, lab, forest.Rules())
}

// ablationTwoSidedRules swaps the one-sided risk features for two-sided
// (twoSidedRules; Section 7.3's finding: two-sided rules have limited
// efficacy for risk).
func ablationTwoSidedRules(tb testing.TB, lab *experiments.Lab, twoSided pipeline.Features) (one, two float64) {
	return runRiskVariant(tb, lab, lab.Features, core.Config{}),
		runRiskVariant(tb, lab, twoSided, core.Config{})
}

// BenchmarkAblationTwoSidedRules reports ablationTwoSidedRules.
func BenchmarkAblationTwoSidedRules(b *testing.B) {
	lab := ablationLab(b)
	twoSided := twoSidedRules(b, lab)
	var one, two float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one, two = ablationTwoSidedRules(b, lab, twoSided)
	}
	b.ReportMetric(one, "AUROC-onesided")
	b.ReportMetric(two, "AUROC-twosided")
}

// ablationNoRuleFeatures keeps only the classifier-output feature (no
// interpretable rules, noRules = compileRules(tb, lab, nil)), which
// degenerates toward the Baseline method.
func ablationNoRuleFeatures(tb testing.TB, lab *experiments.Lab, noRules pipeline.Features) (withRules, without float64) {
	return runRiskVariant(tb, lab, lab.Features, core.Config{}),
		runRiskVariant(tb, lab, noRules, core.Config{})
}

// BenchmarkAblationNoRuleFeatures reports ablationNoRuleFeatures.
func BenchmarkAblationNoRuleFeatures(b *testing.B) {
	lab := ablationLab(b)
	noRules := compileRules(b, lab, nil)
	var withRules, without float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		withRules, without = ablationNoRuleFeatures(b, lab, noRules)
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
	lab := ablationLab(b)
	model, err := pipeline.Fit(context.Background(), lab.Features, lab.ValidX, lab.ValidLab, core.Config{Epochs: 50, Seed: 9}, nil)
	if err != nil {
		b.Fatal(err)
	}
	testInsts, _ := core.BuildInstances(lab.Features.Set.Apply(lab.TestX), lab.TestLab)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Risk(testInsts[i%len(testInsts)])
	}
}

// BenchmarkRuleEvaluation measures rule-firing throughput (feature
// extraction at serving time).
func BenchmarkRuleEvaluation(b *testing.B) {
	lab := ablationLab(b)
	rs := lab.Features.Rules
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := lab.TestX[i%len(lab.TestX)]
		for j := range rs {
			rs[j].Fires(x)
		}
	}
}

// triageReport runs the quickstart pipeline whose ranking the triage bench
// spends its budget on.
func triageReport(tb testing.TB) *learnrisk.Report {
	w, err := generateBench()
	if err != nil {
		tb.Fatal(err)
	}
	rep, err := runBench(w)
	if err != nil {
		tb.Fatal(err)
	}
	return rep
}

// triageYield measures the human-machine cooperation payoff: the fraction
// of mislabels a 10% verification budget corrects when spent in risk order
// (r-HUMO application; paper Section 1).
func triageYield(tb testing.TB, rep *learnrisk.Report) float64 {
	o, err := rep.Triage(len(rep.Ranking) / 10)
	if err != nil {
		tb.Fatal(err)
	}
	if rep.Mislabels == 0 {
		return 0
	}
	return float64(o.Corrected) / float64(rep.Mislabels)
}

// BenchmarkTriageQuality reports triageYield.
func BenchmarkTriageQuality(b *testing.B) {
	rep := triageReport(b)
	var yield float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		yield = triageYield(b, rep)
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
