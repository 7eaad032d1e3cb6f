package experiments

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"repro/internal/active"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/dtree"
	"repro/internal/eval"
	"repro/internal/featstore"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

// ambCand pairs a validation index with its classifier-output ambiguity
// for the active selection of Figure 12.
type ambCand struct {
	idx int
	amb float64
}

// CellResult is one panel of Figure 9/10: AUROC per method on one
// dataset × split-ratio combination.
type CellResult struct {
	Dataset   string
	Ratio     string
	Pairs     int
	Mislabels int
	AUROC     map[string]float64
}

// Fig9Cell runs one Figure 9 panel.
func Fig9Cell(profile, ratio string, s Settings) (*CellResult, error) {
	lab, err := NewLab(profile, ratio, s)
	if err != nil {
		return nil, err
	}
	scores, err := lab.AllScores()
	if err != nil {
		return nil, err
	}
	return &CellResult{
		Dataset:   profile,
		Ratio:     ratio,
		Pairs:     len(lab.TestLab.Idx),
		Mislabels: lab.TestLab.MislabelCount(),
		AUROC:     lab.AUROCs(scores),
	}, nil
}

// Fig9Ratios lists the split ratios of Figure 9.
func Fig9Ratios() []string { return []string{"1:2:7", "2:2:6", "3:2:5"} }

// Fig9Datasets lists the datasets of Figure 9.
func Fig9Datasets() []string { return []string{"DS", "AB", "AG", "SG"} }

// Fig9 runs the full 4x3 grid.
func Fig9(s Settings) ([]*CellResult, error) {
	var out []*CellResult
	for _, d := range Fig9Datasets() {
		for _, r := range Fig9Ratios() {
			cell, err := Fig9Cell(d, r, s)
			if err != nil {
				return nil, fmt.Errorf("fig9 %s(%s): %w", d, r, err)
			}
			out = append(out, cell)
		}
	}
	return out, nil
}

// Fig10Workloads lists the out-of-distribution workloads of Figure 10.
func Fig10Workloads() []string { return []string{"DA2DS", "AB2AG"} }

// Fig10 runs one OOD panel: the classifier trains on the source dataset,
// while validation (risk training) and test come from the target dataset —
// "this setting simulates the scenario where a pre-trained model is applied
// in a new environment".
func Fig10(name string, s Settings) (*CellResult, error) {
	var srcW, dstW *dataset.Workload
	var err error
	switch name {
	case "DA2DS":
		srcW = datagen.MustGenerate(datagen.DA(s.Seed), s.Scale)
		dstW, err = datagen.Generate(datagen.DS(s.Seed+1), s.Scale)
	case "AB2AG":
		srcW = datagen.MustGenerate(datagen.AB(s.Seed), s.Scale)
		ag := datagen.MustGenerate(datagen.AG(s.Seed+1), s.Scale)
		dstW, err = projectAGontoAB(ag)
	default:
		return nil, fmt.Errorf("experiments: unknown OOD workload %q", name)
	}
	if err != nil {
		return nil, err
	}

	// Assemble a combined workload whose training part is the whole source
	// workload and whose validation/test parts split the target workload.
	combined, split, err := oodSplit(srcW, dstW, s.Seed)
	if err != nil {
		return nil, err
	}
	cat := combined.Left.Schema.Catalog(combined.Left, combined.Right)
	lab, err := newLabFromSplit(combined, cat, split, s)
	if err != nil {
		return nil, err
	}
	scores, err := lab.AllScores()
	if err != nil {
		return nil, err
	}
	return &CellResult{
		Dataset:   name,
		Ratio:     "OOD",
		Pairs:     len(lab.TestLab.Idx),
		Mislabels: lab.TestLab.MislabelCount(),
		AUROC:     lab.AUROCs(scores),
	}, nil
}

// projectAGontoAB reshapes the Amazon-Google workload onto the Abt-Buy
// schema (name, description, price) so a classifier trained on AB applies:
// AG's title plays the product name, manufacturer is folded into the
// description, and price carries over.
func projectAGontoAB(ag *dataset.Workload) (*dataset.Workload, error) {
	schema := datagen.ProductABDomain{}.Schema()
	project := func(t *dataset.Table, name string) *dataset.Table {
		out := &dataset.Table{Name: name, Schema: schema}
		for _, r := range t.Records {
			title, manu, desc, price := val(r, 0), val(r, 1), val(r, 2), val(r, 3)
			out.Records = append(out.Records, dataset.Record{
				ID: r.ID, EntityID: r.EntityID,
				Values: []string{title, manu + " " + desc, price},
			})
		}
		return out
	}
	w := &dataset.Workload{
		Name:  "AGonAB",
		Left:  project(ag.Left, "AGonAB-left"),
		Right: project(ag.Right, "AGonAB-right"),
		Pairs: ag.Pairs,
	}
	return w, w.Validate()
}

func val(r dataset.Record, i int) string {
	if i < len(r.Values) {
		return r.Values[i]
	}
	return ""
}

// oodSplit merges the source and target workloads into one (sharing the
// source's schema) and returns a split whose Train covers the source pairs
// and whose Valid/Test partition the target pairs 2:5.
func oodSplit(src, dst *dataset.Workload, seed uint64) (*dataset.Workload, dataset.Split, error) {
	if len(src.Left.Schema.Attrs) != len(dst.Left.Schema.Attrs) {
		return nil, dataset.Split{}, fmt.Errorf("experiments: OOD schema arity mismatch")
	}
	combined := &dataset.Workload{
		Name:  src.Name + "2" + dst.Name,
		Left:  &dataset.Table{Name: "ood-left", Schema: src.Left.Schema},
		Right: &dataset.Table{Name: "ood-right", Schema: src.Left.Schema},
		Pairs: nil,
	}
	appendTable := func(dstT *dataset.Table, srcT *dataset.Table) int {
		base := len(dstT.Records)
		dstT.Records = append(dstT.Records, srcT.Records...)
		return base
	}
	// Source records and pairs.
	lb := appendTable(combined.Left, src.Left)
	rb := appendTable(combined.Right, src.Right)
	var split dataset.Split
	for _, p := range src.Pairs {
		combined.Pairs = append(combined.Pairs, dataset.Pair{
			Left: p.Left + lb, Right: p.Right + rb, Match: p.Match,
		})
		split.Train = append(split.Train, len(combined.Pairs)-1)
	}
	// Target records and pairs.
	lb = appendTable(combined.Left, dst.Left)
	rb = appendTable(combined.Right, dst.Right)
	targetStart := len(combined.Pairs)
	for _, p := range dst.Pairs {
		combined.Pairs = append(combined.Pairs, dataset.Pair{
			Left: p.Left + lb, Right: p.Right + rb, Match: p.Match,
		})
	}
	rng := stats.NewRNG(seed + 7)
	targetIdx := make([]int, len(dst.Pairs))
	for i := range targetIdx {
		targetIdx[i] = targetStart + i
	}
	rng.Shuffle(len(targetIdx), func(i, j int) { targetIdx[i], targetIdx[j] = targetIdx[j], targetIdx[i] })
	nValid := 2 * len(targetIdx) / 7
	split.Valid = targetIdx[:nValid]
	split.Test = targetIdx[nValid:]
	return combined, split, combined.Validate()
}

// Fig11Result is one panel of Figure 11: LearnRisk vs HoloClean, averaged
// over subsampled workloads.
type Fig11Result struct {
	Dataset   string
	Reps      int
	PairsPer  int
	HoloClean float64
	LearnRisk float64
}

// Fig11 compares LearnRisk with the HoloClean adaptation on `reps`
// subsampled test workloads of `pairs` pairs each (the paper samples 1000
// pairs, 2000 for SG, 5 subsets per dataset).
func Fig11(profile string, pairs, reps int, s Settings) (*Fig11Result, error) {
	lab, err := NewLab(profile, "3:2:5", s)
	if err != nil {
		return nil, err
	}
	model, err := pipeline.Fit(context.Background(), lab.Features, lab.ValidX, lab.ValidLab, lab.riskConfig(), nil)
	if err != nil {
		return nil, err
	}
	res := &Fig11Result{Dataset: profile, Reps: reps, PairsPer: pairs}
	for rep := 0; rep < reps; rep++ {
		// Subsample the test part; rows come straight from the lab's store.
		sub := subsample(lab.Split.Test, pairs, s.Seed+uint64(rep)*13)
		subX := lab.Store.Rows(sub)
		subLab := lab.Matcher.LabelRows(lab.W, sub, subX)
		bad := make([]bool, len(sub))
		for k := range sub {
			bad[k] = subLab.Mislabeled(k)
		}
		hcScores, err := lab.HoloCleanScores(subX, subLab)
		if err != nil {
			return nil, err
		}
		res.LearnRisk += eval.AUROC(pipeline.Risks(model, lab.Features, subX, subLab), bad)
		res.HoloClean += eval.AUROC(hcScores, bad)
	}
	res.LearnRisk /= float64(reps)
	res.HoloClean /= float64(reps)
	return res, nil
}

// SensitivityPoint is one x-position of Figure 12.
type SensitivityPoint struct {
	Label string // "1%", "#100", ...
	Size  int
	AUROC float64
}

// Fig12Random evaluates LearnRisk with risk-training data randomly sampled
// at the given fractions of the workload (paper: 1%..20%, classifier
// training fixed at 30%, test at 50%).
func Fig12Random(profile string, fracs []float64, s Settings) ([]SensitivityPoint, error) {
	lab, err := NewLab(profile, "3:2:5", s)
	if err != nil {
		return nil, err
	}
	bad := lab.Mislabels()
	var out []SensitivityPoint
	for _, f := range fracs {
		n := int(f * float64(len(lab.W.Pairs)))
		if n < 10 {
			n = 10
		}
		if n > len(lab.Split.Valid) {
			n = len(lab.Split.Valid)
		}
		idx := subsample(lab.Split.Valid, n, s.Seed+uint64(n))
		scores, err := lab.LearnRiskScores(idx)
		if err != nil {
			return nil, err
		}
		out = append(out, SensitivityPoint{
			Label: fmt.Sprintf("%g%%", f*100), Size: n, AUROC: eval.AUROC(scores, bad),
		})
	}
	return out, nil
}

// Fig12Active evaluates LearnRisk with risk-training data actively selected
// from the validation pool by the highest classifier-output ambiguity
// (paper Section 7.4, second experiment).
func Fig12Active(profile string, sizes []int, s Settings) ([]SensitivityPoint, error) {
	lab, err := NewLab(profile, "3:2:5", s)
	if err != nil {
		return nil, err
	}
	bad := lab.Mislabels()
	// Rank the validation pool by ambiguity once.
	cands := make([]ambCand, len(lab.Split.Valid))
	for k, i := range lab.Split.Valid {
		p := lab.ValidLab.Prob[k]
		a := 0.5 - math.Abs(p-0.5)
		cands[k] = ambCand{idx: i, amb: a}
	}
	// Descending ambiguity with deterministic tie-break on index.
	slices.SortFunc(cands, func(a, b ambCand) int {
		return cmp.Or(cmp.Compare(b.amb, a.amb), cmp.Compare(a.idx, b.idx))
	})
	var out []SensitivityPoint
	for _, n := range sizes {
		if n > len(cands) {
			n = len(cands)
		}
		idx := make([]int, n)
		for k := 0; k < n; k++ {
			idx[k] = cands[k].idx
		}
		scores, err := lab.LearnRiskScores(idx)
		if err != nil {
			return nil, err
		}
		out = append(out, SensitivityPoint{
			Label: fmt.Sprintf("#%d", n), Size: n, AUROC: eval.AUROC(scores, bad),
		})
	}
	return out, nil
}

// ScalabilityPoint is one x-position of Figure 13.
type ScalabilityPoint struct {
	Size    int
	Seconds float64
}

// Fig13RuleGen measures rule-generation runtime as the training size grows
// (paper Figure 13(a)).
func Fig13RuleGen(profile string, sizes []int, s Settings) ([]ScalabilityPoint, error) {
	lab, err := NewLab(profile, "7:1:2", s)
	if err != nil {
		return nil, err
	}
	var out []ScalabilityPoint
	for _, n := range sizes {
		if n > len(lab.Split.Train) {
			n = len(lab.Split.Train)
		}
		X := lab.TrainX[:n]
		y := lab.TrainY[:n]
		start := time.Now()
		dtree.GenerateRiskFeatures(X, y, lab.Cat.Names(), s.RuleGen)
		out = append(out, ScalabilityPoint{Size: n, Seconds: time.Since(start).Seconds()})
	}
	return out, nil
}

// Fig13RiskTraining measures risk-model training runtime as the risk
// training size grows (paper Figure 13(b)).
func Fig13RiskTraining(profile string, sizes []int, s Settings) ([]ScalabilityPoint, error) {
	lab, err := NewLab(profile, "3:5:2", s)
	if err != nil {
		return nil, err
	}
	var out []ScalabilityPoint
	for _, n := range sizes {
		if n > len(lab.Split.Valid) {
			n = len(lab.Split.Valid)
		}
		idx := lab.Split.Valid[:n]
		X := lab.Store.Rows(idx)
		labTrain := lab.Matcher.LabelRows(lab.W, idx, X)
		start := time.Now()
		if _, err := pipeline.Fit(context.Background(), lab.Features, X, labTrain, lab.riskConfig(), nil); err != nil {
			return nil, err
		}
		out = append(out, ScalabilityPoint{Size: n, Seconds: time.Since(start).Seconds()})
	}
	return out, nil
}

// Fig14 runs the active-learning comparison (paper Figure 14) on the
// profile with the three selection strategies.
func Fig14(profile string, s Settings, alCfg active.Config) (map[string][]active.Point, error) {
	spec, ok := datagen.ByName(profile, s.Seed)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown profile %q", profile)
	}
	w, err := datagen.Generate(spec, s.Scale)
	if err != nil {
		return nil, err
	}
	cat := w.Left.Schema.Catalog(w.Left, w.Right)
	split, err := w.SplitPairs("5:0.1:4.9", s.Seed)
	if err != nil {
		return nil, err
	}
	pool := append(append([]int(nil), split.Train...), split.Valid...)
	st := featstore.New(w, cat) // the three methods read one set of rows
	out := make(map[string][]active.Point)
	for _, method := range []active.Method{active.LeastConfidence, active.Entropy, active.LearnRisk} {
		curve, err := active.Run(w, cat, st, pool, split.Test, method, alCfg)
		if err != nil {
			return nil, fmt.Errorf("fig14 %s: %w", method, err)
		}
		out[string(method)] = curve
	}
	return out, nil
}

// NoisePoint is one x-position of the dirtiness sweep (this repository's
// extension experiment): dataset corruption intensity against the AUROC of
// every method.
type NoisePoint struct {
	Dirtiness float64
	Mislabels int
	AUROC     map[string]float64
}

// NoiseSweep regenerates the profile at increasing corruption intensities
// and evaluates all Figure 9 methods at each, probing how risk-analysis
// quality degrades as workloads get dirtier and classifiers err more. Not a
// paper figure; an ablation this reproduction adds.
func NoiseSweep(profile string, dirtiness []float64, s Settings) ([]NoisePoint, error) {
	spec, ok := datagen.ByName(profile, s.Seed)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown profile %q", profile)
	}
	var out []NoisePoint
	for _, d := range dirtiness {
		sp := spec
		sp.Dirtiness = d
		w, err := datagen.Generate(sp, s.Scale)
		if err != nil {
			return nil, err
		}
		lab, err := newLabFrom(w, "3:2:5", s)
		if err != nil {
			return nil, err
		}
		scores, err := lab.AllScores()
		if err != nil {
			return nil, err
		}
		out = append(out, NoisePoint{
			Dirtiness: d,
			Mislabels: lab.TestLab.MislabelCount(),
			AUROC:     lab.AUROCs(scores),
		})
	}
	return out, nil
}

// FormatNoiseSweep renders the sweep rows.
func FormatNoiseSweep(pts []NoisePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %6s", "dirtiness", "misl")
	for _, m := range MethodNames() {
		fmt.Fprintf(&b, " %12s", m)
	}
	b.WriteString("\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "%10.2f %6d", p.Dirtiness, p.Mislabels)
		for _, m := range MethodNames() {
			fmt.Fprintf(&b, " %12.3f", p.AUROC[m])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Table2 generates all profiles at the settings' scale and returns their
// statistics rows (paper Table 2).
func Table2(s Settings) ([]dataset.Stats, error) {
	var out []dataset.Stats
	for _, name := range datagen.Names() {
		spec, _ := datagen.ByName(name, s.Seed)
		w, err := datagen.Generate(spec, s.Scale)
		if err != nil {
			return nil, err
		}
		out = append(out, w.Stats())
	}
	return out, nil
}

// --- small shared helpers ---

func subsample(idx []int, n int, seed uint64) []int {
	if n >= len(idx) {
		return idx
	}
	rng := stats.NewRNG(seed)
	sel := rng.Sample(len(idx), n)
	out := make([]int, n)
	for k, j := range sel {
		out[k] = idx[j]
	}
	return out
}
