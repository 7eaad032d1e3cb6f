package core

import (
	"math"
	"testing"

	"repro/internal/eval"
	"repro/internal/rules"
	"repro/internal/stats"
)

// mkFeatures builds two archetypal risk features: a high-confidence
// unmatching rule (mu near 0) and a high-confidence matching rule (mu near 1).
func mkFeatures() []Feature {
	unmatch := rules.Rule{
		Predicates: []rules.Predicate{{Metric: 0, Name: "year.num_diff", Op: rules.GT, Threshold: 0.5}},
		Match:      false, Support: 200, Purity: 0.98,
	}
	match := rules.Rule{
		Predicates: []rules.Predicate{{Metric: 1, Name: "title.jaccard", Op: rules.GT, Threshold: 0.9}},
		Match:      true, Support: 120, Purity: 0.96,
	}
	return []Feature{
		{Rule: unmatch, Mu: 0.02},
		{Rule: match, Mu: 0.95},
	}
}

func TestNewValidatesExpectations(t *testing.T) {
	if _, err := New([]Feature{{Mu: 0}}, Config{}); err == nil {
		t.Error("mu=0 should be rejected")
	}
	if _, err := New([]Feature{{Mu: 1}}, Config{}); err == nil {
		t.Error("mu=1 should be rejected")
	}
	if _, err := New(mkFeatures(), Config{}); err != nil {
		t.Errorf("valid features rejected: %v", err)
	}
}

func TestInfluenceFunctionShape(t *testing.T) {
	m, _ := New(nil, Config{})
	// Matches Figure 8: weight grows with output extremeness, symmetric
	// around 0.5, minimum at 0.5 with value beta + 1 - 1 = beta.
	mid := m.Influence(0.5)
	lo := m.Influence(0.05)
	hi := m.Influence(0.95)
	if !(lo > mid && hi > mid) {
		t.Errorf("influence not U-shaped: f(0.05)=%f f(0.5)=%f f(0.95)=%f", lo, mid, hi)
	}
	if math.Abs(lo-hi) > 1e-9 {
		t.Errorf("influence not symmetric: %f vs %f", lo, hi)
	}
	_, beta := m.InfluenceParams()
	if math.Abs(mid-beta) > 1e-9 {
		t.Errorf("f(0.5) = %f, want beta = %f", mid, beta)
	}
	alpha, _ := m.InfluenceParams()
	if math.Abs(alpha-0.2) > 1e-6 || math.Abs(beta-10) > 1e-6 {
		t.Errorf("default influence params (%f,%f), want (0.2,10)", alpha, beta)
	}
}

func TestAssessPortfolioAggregation(t *testing.T) {
	m, _ := New(mkFeatures(), Config{})

	// Pair labeled matching (p=0.9) but firing the unmatching rule: the
	// rule drags mu down, and risk must exceed a pair without the rule.
	conflicted := Instance{Fired: []int{0}, Prob: 0.9, Label: true}
	clean := Instance{Fired: nil, Prob: 0.9, Label: true}
	ac := m.Assess(conflicted)
	al := m.Assess(clean)
	if ac.Mu >= al.Mu {
		t.Errorf("unmatching rule should lower mu: %f vs %f", ac.Mu, al.Mu)
	}
	if ac.Risk <= al.Risk {
		t.Errorf("conflicted pair should be riskier: %f vs %f", ac.Risk, al.Risk)
	}
	// Supporting evidence lowers risk: matching rule on matching label.
	supported := Instance{Fired: []int{1}, Prob: 0.9, Label: true}
	as := m.Assess(supported)
	if as.Risk > al.Risk+1e-9 {
		t.Errorf("supporting rule should not raise risk: %f vs %f", as.Risk, al.Risk)
	}
	// Mu is always a valid probability.
	for _, a := range []Assessment{ac, al, as} {
		if a.Mu < 0 || a.Mu > 1 || a.Sigma < 0 || a.Risk < 0 || a.Risk > 1 {
			t.Errorf("invalid assessment %+v", a)
		}
	}
}

func TestVarianceRaisesRisk(t *testing.T) {
	feats := mkFeatures()
	lowVar, _ := New(feats, Config{InitRSD: 0.01})
	highVar, _ := New(feats, Config{InitRSD: 0.8})
	inst := Instance{Fired: []int{0}, Prob: 0.4, Label: false}
	lo := lowVar.Assess(inst)
	hi := highVar.Assess(inst)
	if hi.Sigma <= lo.Sigma {
		t.Fatalf("higher RSD must raise sigma: %f vs %f", hi.Sigma, lo.Sigma)
	}
	if hi.Risk <= lo.Risk {
		t.Errorf("fluctuation risk not captured: risk %f (sigma %f) vs %f (sigma %f)",
			hi.Risk, hi.Sigma, lo.Risk, lo.Sigma)
	}
}

func TestAmbiguousOutputIsRiskier(t *testing.T) {
	m, _ := New(nil, Config{})
	ambiguous := m.Risk(Instance{Prob: 0.55, Label: true})
	confident := m.Risk(Instance{Prob: 0.99, Label: true})
	if ambiguous <= confident {
		t.Errorf("ambiguous output should be riskier: %f vs %f", ambiguous, confident)
	}
	// Same on the unmatching side.
	ambiguousU := m.Risk(Instance{Prob: 0.45, Label: false})
	confidentU := m.Risk(Instance{Prob: 0.01, Label: false})
	if ambiguousU <= confidentU {
		t.Errorf("unmatching side: %f vs %f", ambiguousU, confidentU)
	}
}

func TestSurrogateAgreesWithTruncatedRanking(t *testing.T) {
	m, _ := New(mkFeatures(), Config{})
	mu, _ := New(mkFeatures(), Config{UntruncatedInference: true})
	insts := []Instance{
		{Fired: []int{0}, Prob: 0.9, Label: true},
		{Fired: nil, Prob: 0.9, Label: true},
		{Fired: []int{1}, Prob: 0.2, Label: false},
		{Fired: nil, Prob: 0.05, Label: false},
		{Fired: []int{0, 1}, Prob: 0.5, Label: true},
	}
	tr := m.RiskAll(insts)
	su := mu.RiskAll(insts)
	// Pairwise order agreement between truncated and surrogate scores.
	for i := 0; i < len(insts); i++ {
		for j := 0; j < len(insts); j++ {
			if tr[i] > tr[j]+1e-9 && su[i] < su[j]-1e-9 {
				t.Errorf("ranking disagreement between truncated and surrogate at (%d,%d)", i, j)
			}
		}
	}
}

func TestExplain(t *testing.T) {
	m, _ := New(mkFeatures(), Config{})
	inst := Instance{Fired: []int{0, 1}, Prob: 0.7, Label: true}
	exp := m.Explain(inst)
	if len(exp) != 3 {
		t.Fatalf("explanation has %d contributions, want 3", len(exp))
	}
	total := 0.0
	for _, c := range exp {
		total += c.Share
		if c.Share < 0 || c.Share > 1 {
			t.Errorf("share %f out of range", c.Share)
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %f, want 1", total)
	}
	for i := 1; i < len(exp); i++ {
		if exp[i].Share > exp[i-1].Share {
			t.Error("explanation not sorted by share")
		}
	}
	// Default influence beta=10 dominates two unit rule weights.
	if exp[0].Description == "" || exp[0].Share < 0.5 {
		t.Errorf("classifier output should dominate: %+v", exp[0])
	}
}

// syntheticRiskData fabricates instances whose mislabels are detectable
// through rule signals: pairs firing feature 0 (unmatch rule) but labeled
// matching are usually mislabeled, etc.
func syntheticRiskData(n int, seed uint64) ([]Instance, []bool) {
	rng := stats.NewRNG(seed)
	insts := make([]Instance, n)
	bad := make([]bool, n)
	for i := range insts {
		p := rng.Float64()
		label := p >= 0.5
		var fired []int
		mis := false
		switch {
		case rng.Float64() < 0.25: // conflicted: unmatch rule fires
			fired = append(fired, 0)
			if label {
				mis = rng.Float64() < 0.85 // usually mislabeled
			} else {
				mis = rng.Float64() < 0.05
			}
		case rng.Float64() < 0.3: // match rule fires
			fired = append(fired, 1)
			if !label {
				mis = rng.Float64() < 0.8
			} else {
				mis = rng.Float64() < 0.05
			}
		default:
			mis = rng.Float64() < 0.08
		}
		insts[i] = Instance{Fired: fired, Prob: p, Label: label}
		bad[i] = mis
	}
	return insts, bad
}

func TestFitImprovesAUROCAndLoss(t *testing.T) {
	feats := mkFeatures()
	m, _ := New(feats, Config{Epochs: 300, LR: 0.05, Seed: 2})
	insts, bad := syntheticRiskData(400, 3)
	before := eval.AUROC(m.RiskAll(insts), bad)
	lossBefore := m.Loss(insts, bad)
	if err := m.Fit(insts, bad); err != nil {
		t.Fatal(err)
	}
	after := eval.AUROC(m.RiskAll(insts), bad)
	lossAfter := m.Loss(insts, bad)
	if lossAfter >= lossBefore {
		t.Errorf("loss did not decrease: %f -> %f", lossBefore, lossAfter)
	}
	if after <= before {
		t.Errorf("AUROC did not improve: %f -> %f", before, after)
	}
	if after < 0.75 {
		t.Errorf("trained AUROC %f < 0.75 on synthetic risk data", after)
	}
	// Generalization: fresh instances from the same process.
	testInsts, testBad := syntheticRiskData(400, 77)
	testAUROC := eval.AUROC(m.RiskAll(testInsts), testBad)
	if testAUROC < 0.7 {
		t.Errorf("held-out AUROC %f < 0.7", testAUROC)
	}
}

func TestFitErrors(t *testing.T) {
	m, _ := New(mkFeatures(), Config{Epochs: 1})
	if err := m.Fit([]Instance{{}}, []bool{true, false}); err == nil {
		t.Error("length mismatch should fail")
	}
	if err := m.Fit([]Instance{{}, {}}, []bool{false, false}); err != ErrNoTrainingSignal {
		t.Errorf("want ErrNoTrainingSignal, got %v", err)
	}
	if err := m.Fit([]Instance{{}, {}}, []bool{true, true}); err != ErrNoTrainingSignal {
		t.Errorf("want ErrNoTrainingSignal, got %v", err)
	}
}

func TestFitDeterministic(t *testing.T) {
	insts, bad := syntheticRiskData(150, 5)
	run := func() []float64 {
		m, _ := New(mkFeatures(), Config{Epochs: 50, Seed: 9})
		if err := m.Fit(insts, bad); err != nil {
			t.Fatal(err)
		}
		return m.RiskAll(insts)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("training not deterministic")
		}
	}
}

// TestGradientsMatchFiniteDifferences validates the analytic chain rule in
// backprop against numeric differentiation of the surrogate gamma.
func TestGradientsMatchFiniteDifferences(t *testing.T) {
	m, _ := New(mkFeatures(), Config{})
	insts := []Instance{
		{Fired: []int{0, 1}, Prob: 0.73, Label: true},
		{Fired: []int{0}, Prob: 0.31, Label: false},
		{Fired: nil, Prob: 0.5, Label: true},
	}
	for _, inst := range insts {
		grads := make([]float64, m.paramCount())
		pc := m.newParamCache()
		m.fillParamCache(pc)
		f := m.fuseCached(inst, pc)
		m.backprop(inst, &f, 1.0, grads, pc)

		gamma := func() float64 { return m.surrogate(m.fuse(inst), inst.Label) }
		check := func(name string, param *float64, analytic float64) {
			t.Helper()
			const eps = 1e-6
			orig := *param
			*param = orig + eps
			up := gamma()
			*param = orig - eps
			down := gamma()
			*param = orig
			numeric := (up - down) / (2 * eps)
			if math.Abs(numeric-analytic) > 1e-5*(1+math.Abs(numeric)) {
				t.Errorf("%s: analytic %.8f vs numeric %.8f (inst %+v)", name, analytic, numeric, inst)
			}
		}
		F := len(m.features)
		for j := 0; j < F; j++ {
			check("rho", &m.rho[j], grads[j])
			check("rsd", &m.rsdRaw[j], grads[F+j])
		}
		check("alpha", &m.alphaR, grads[2*F])
		check("beta", &m.betaR, grads[2*F+1])
		b := m.cal.Bucket(inst.Prob)
		check("bucket", &m.bucketR[b], grads[2*F+2+b])
	}
}

func TestAccessors(t *testing.T) {
	m, _ := New(mkFeatures(), Config{InitWeight: 2, InitRSD: 0.3})
	if m.NumFeatures() != 2 {
		t.Errorf("NumFeatures = %d", m.NumFeatures())
	}
	if got := m.Feature(0).Mu; got != 0.02 {
		t.Errorf("Feature(0).Mu = %f", got)
	}
	if math.Abs(m.Weight(0)-2) > 1e-9 {
		t.Errorf("Weight = %f, want 2", m.Weight(0))
	}
	if math.Abs(m.RSD(1)-0.3) > 1e-9 {
		t.Errorf("RSD = %f, want 0.3", m.RSD(1))
	}
}

func TestTopFeatures(t *testing.T) {
	m, _ := New(mkFeatures(), Config{Epochs: 150, LR: 0.05, Seed: 3})
	insts, bad := syntheticRiskData(300, 8)
	if err := m.Fit(insts, bad); err != nil {
		t.Fatal(err)
	}
	top := m.TopFeatures(0)
	if len(top) != 2 {
		t.Fatalf("TopFeatures(0) = %d entries, want all 2", len(top))
	}
	if top[0].Weight < top[1].Weight {
		t.Error("TopFeatures not sorted by weight")
	}
	one := m.TopFeatures(1)
	if len(one) != 1 || one[0].Weight != top[0].Weight {
		t.Error("TopFeatures(1) should return the heaviest feature")
	}
	for _, rf := range top {
		if rf.Weight <= 0 || rf.RSD <= 0 {
			t.Errorf("non-positive learned parameters: %+v", rf)
		}
	}
}

func TestBuildHelpers(t *testing.T) {
	rs := []rules.Rule{mkFeatures()[0].Rule}
	sts := []rules.Stat{{Support: 10, Matches: 1, MatchRate: 2.0 / 12.0}}
	feats := BuildFeatures(rs, sts)
	if len(feats) != 1 || feats[0].Mu != 2.0/12.0 {
		t.Errorf("BuildFeatures = %+v", feats)
	}
}
