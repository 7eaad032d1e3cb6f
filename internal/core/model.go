// Package core implements the paper's primary contribution: the LearnRisk
// risk model. Each risk feature (a one-sided rule, plus the classifier
// output itself) carries an equivalence-probability distribution
// N(mu_f, sigma_f^2); a labeled pair is a portfolio of the features it
// satisfies, its distribution is the weighted aggregation of the feature
// distributions (Eq. 2–3), and its risk of being mislabeled is the
// Value-at-Risk of that distribution truncated to [0,1] (Eq. 8–10). Feature
// weights, feature RSDs and the classifier-output influence function
// (Eq. 11) are learned with pairwise learning-to-rank (Eq. 13–15); see
// train.go.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/classifier"
	"repro/internal/par"
	"repro/internal/rules"
	"repro/internal/stats"
)

// Config holds the risk model's hyperparameters. Zero values take the
// defaults noted per field (the paper's settings where it states them).
type Config struct {
	// Theta is the VaR confidence level (default 0.9, Section 7.1).
	Theta float64
	// Buckets is the number of classifier-output buckets, each with its
	// own learned RSD (default 10; Section 6.2.1 "split the pairs into
	// multiple subsets ... learn a value of RSD for each subset").
	Buckets int
	// Epochs for parameter optimization (default 1000, Section 7.1).
	Epochs int
	// LR is the learning rate (default 0.001 as in Section 6.2.3; the
	// optimizer is Adam, so convergence at this rate is comfortable
	// within the default epoch budget).
	LR float64
	// L1 and L2 regularization strengths on the feature weights
	// (default 1e-4 each; Section 6.2.3 adds both to the loss).
	L1, L2 float64
	// PairSample bounds the (mislabeled, correct) ranking pairs sampled
	// per epoch (default 4096).
	PairSample int
	// InitWeight is the initial rule-feature weight (default 1).
	InitWeight float64
	// InitRSD is the initial relative standard deviation of every feature
	// (default 0.25).
	InitRSD float64
	// InitAlpha and InitBeta initialize the influence function
	// (default 0.2 and 10, the example values of Figure 8).
	InitAlpha, InitBeta float64
	// UntruncatedInference disables the truncated-normal quantile at
	// scoring time and uses the smooth training surrogate instead
	// (ablation knob; default false).
	UntruncatedInference bool
	// NoVariance forces every fused distribution's variance to zero, so
	// risk degenerates to the expectation term alone (ablation knob that
	// removes the paper's fluctuation-risk contribution; default false).
	NoVariance bool
	// Seed drives pair sampling (default 1).
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Theta == 0 {
		c.Theta = 0.9
	}
	if c.Buckets == 0 {
		c.Buckets = 10
	}
	if c.Epochs == 0 {
		c.Epochs = 1000
	}
	if c.LR == 0 {
		c.LR = 0.001
	}
	if c.L1 == 0 {
		c.L1 = 1e-4
	}
	if c.L2 == 0 {
		c.L2 = 1e-4
	}
	if c.PairSample == 0 {
		c.PairSample = 4096
	}
	if c.InitWeight == 0 {
		c.InitWeight = 1
	}
	if c.InitRSD == 0 {
		c.InitRSD = 0.25
	}
	if c.InitAlpha == 0 {
		c.InitAlpha = 0.2
	}
	if c.InitBeta == 0 {
		c.InitBeta = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Feature is one rule-based risk feature with its prior expectation: the
// Laplace-smoothed match rate of the rule's support in the classifier
// training data ("the model considers the expectations of risk feature
// distributions as prior knowledge", Section 6.2.1).
type Feature struct {
	Rule rules.Rule
	Mu   float64
}

// Instance is one labeled pair as the risk model sees it: which rule
// features fire on it, the classifier's output probability, and the machine
// label that output induces.
type Instance struct {
	Fired []int   // indices into the model's feature list
	Prob  float64 // classifier output in [0,1]
	Label bool    // machine label (Prob >= 0.5)
}

// Assessment is the fused equivalence-probability distribution of a pair
// and its VaR risk.
type Assessment struct {
	Mu    float64 // expectation of the pair's equivalence probability
	Sigma float64 // standard deviation
	Risk  float64 // VaR_theta of the mislabeling loss
}

// Model is a trained (or trainable) LearnRisk risk model.
type Model struct {
	cfg      Config
	features []Feature
	cal      classifier.Calibration

	// Learnable parameters, raw (softplus-transformed into the positive
	// quantities they control).
	rho     []float64 // rule weights: w_j = softplus(rho[j])
	rsdRaw  []float64 // rule RSDs: rsd_j = softplus(rsdRaw[j])
	alphaR  float64   // influence alpha = softplus(alphaR)
	betaR   float64   // influence beta = softplus(betaR)
	bucketR []float64 // per-bucket classifier RSD = softplus(bucketR[b])

	z float64 // Phi^{-1}(Theta), cached
}

// New constructs an untrained model over the given features.
func New(features []Feature, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	for i, f := range features {
		if f.Mu <= 0 || f.Mu >= 1 {
			return nil, fmt.Errorf("core: feature %d expectation %v outside (0,1); use Laplace smoothing", i, f.Mu)
		}
	}
	m := &Model{
		cfg:      cfg,
		features: features,
		cal:      classifier.Calibration{Buckets: cfg.Buckets},
		rho:      make([]float64, len(features)),
		rsdRaw:   make([]float64, len(features)),
		bucketR:  make([]float64, cfg.Buckets),
		alphaR:   stats.SoftplusInv(cfg.InitAlpha),
		betaR:    stats.SoftplusInv(cfg.InitBeta),
		z:        stats.NormalQuantile(cfg.Theta, 0, 1),
	}
	for j := range m.rho {
		m.rho[j] = stats.SoftplusInv(cfg.InitWeight)
		m.rsdRaw[j] = stats.SoftplusInv(cfg.InitRSD)
	}
	for b := range m.bucketR {
		m.bucketR[b] = stats.SoftplusInv(cfg.InitRSD)
	}
	return m, nil
}

// NumFeatures returns the number of rule features (excluding the implicit
// classifier-output feature).
func (m *Model) NumFeatures() int { return len(m.features) }

// Feature returns the i-th rule feature.
func (m *Model) Feature(i int) Feature { return m.features[i] }

// Weight returns the current (positive) weight of rule feature j.
func (m *Model) Weight(j int) float64 { return stats.Softplus(m.rho[j]) }

// RSD returns the current relative standard deviation of rule feature j.
func (m *Model) RSD(j int) float64 { return stats.Softplus(m.rsdRaw[j]) }

// InfluenceParams returns the current influence-function shape (alpha, beta).
func (m *Model) InfluenceParams() (alpha, beta float64) {
	return stats.Softplus(m.alphaR), stats.Softplus(m.betaR)
}

// Influence evaluates the classifier-output influence function of Eq. 11 at
// output x: f_w(x) = -exp(-(x-0.5)^2/(2 alpha^2)) + beta + 1. It grows with
// the extremeness of x.
func (m *Model) Influence(x float64) float64 {
	alpha, beta := m.InfluenceParams()
	d := x - 0.5
	return -math.Exp(-d*d/(2*alpha*alpha)) + beta + 1
}

// fusion holds the intermediates of the portfolio aggregation for one
// instance; backprop reuses them.
type fusion struct {
	wc     float64 // classifier-feature weight f_w(p)
	infl   float64 // influence term exp(-(p-0.5)^2/(2 alpha^2)), set by fuseCached
	sigC   float64 // classifier-feature sigma (bucket RSD * p)
	bucket int
	S      float64 // total weight mass
	mu     float64
	vr     float64 // variance
	sigma  float64
}

// fuse aggregates the distributions of the features firing on inst
// (Eq. 2–3): the classifier output and the fired rule features are a
// portfolio whose weights are normalized per pair by their total mass S,
// so mu = sum(w_k mu_k)/S and the variance is sum(w_k^2 sigma_k^2)/S^2.
//
//vetkit:hotpath
func (m *Model) fuse(inst Instance) fusion {
	var f fusion
	f.wc = m.Influence(inst.Prob)
	f.bucket = m.cal.Bucket(inst.Prob)
	f.sigC = stats.Softplus(m.bucketR[f.bucket]) * inst.Prob
	f.S = f.wc
	numMu := f.wc * inst.Prob
	numVar := f.wc * f.wc * f.sigC * f.sigC
	for _, j := range inst.Fired {
		w := stats.Softplus(m.rho[j])
		muJ := m.features[j].Mu
		sigJ := stats.Softplus(m.rsdRaw[j]) * muJ
		f.S += w
		numMu += w * muJ
		numVar += w * w * sigJ * sigJ
	}
	f.mu = numMu / f.S
	if m.cfg.NoVariance {
		return f
	}
	f.vr = numVar / (f.S * f.S)
	f.sigma = math.Sqrt(f.vr)
	return f
}

// Assess returns the fused distribution and VaR risk of one instance.
// For a pair labeled unmatching the loss is its equivalence probability, so
// VaR_theta = F^{-1}(theta) (Eq. 9); for a matching label the loss is
// 1 - equivalence probability, so VaR_theta = 1 - F^{-1}(1-theta) (Eq. 10).
//
//vetkit:hotpath
func (m *Model) Assess(inst Instance) Assessment {
	f := m.fuse(inst)
	a := Assessment{Mu: f.mu, Sigma: f.sigma}
	if m.cfg.UntruncatedInference {
		a.Risk = m.surrogate(f, inst.Label)
		return a
	}
	tn, err := stats.MakeTruncNormal(f.mu, f.sigma, 0, 1)
	if err != nil {
		// Unreachable: [0,1] is never empty. Fall back to the surrogate.
		a.Risk = m.surrogate(f, inst.Label)
		return a
	}
	if inst.Label {
		a.Risk = 1 - tn.Quantile(1-m.cfg.Theta)
	} else {
		a.Risk = tn.Quantile(m.cfg.Theta)
	}
	return a
}

// surrogate is the smooth untruncated VaR used during training:
// mu + z*sigma for unmatching labels, (1-mu) + z*sigma for matching labels.
// It is monotone in both mu and sigma, so optimizing the ranking of the
// surrogate optimizes the ranking of the truncated VaR.
//
//vetkit:hotpath
func (m *Model) surrogate(f fusion, label bool) float64 {
	if label {
		return (1 - f.mu) + m.z*f.sigma
	}
	return f.mu + m.z*f.sigma
}

// Risk returns only the VaR risk of the instance.
func (m *Model) Risk(inst Instance) float64 { return m.Assess(inst).Risk }

// RiskAll scores a batch of instances in parallel, computing the softplus
// parameter transforms once for the whole batch. Results are identical to
// per-instance Risk calls.
func (m *Model) RiskAll(insts []Instance) []float64 {
	pc := m.newParamCache()
	m.fillParamCache(pc)
	out := make([]float64, len(insts))
	par.For(len(insts), func(i int) {
		out[i] = m.riskCached(insts[i], pc)
	})
	return out
}

// riskCached is Assess's risk computation over the cached transforms.
func (m *Model) riskCached(inst Instance, pc *paramCache) float64 {
	f := m.fuseCached(inst, pc)
	if m.cfg.UntruncatedInference {
		return m.surrogate(f, inst.Label)
	}
	tn, err := stats.MakeTruncNormal(f.mu, f.sigma, 0, 1)
	if err != nil {
		// Unreachable: [0,1] is never empty. Fall back to the surrogate.
		return m.surrogate(f, inst.Label)
	}
	if inst.Label {
		return 1 - tn.Quantile(1-m.cfg.Theta)
	}
	return tn.Quantile(m.cfg.Theta)
}

// Contribution is one line of a risk explanation: a feature, its normalized
// weight share in the pair's portfolio, and its distribution.
type Contribution struct {
	Description string
	Share       float64 // normalized weight w̃ in [0,1]
	Mu          float64
	Sigma       float64
}

// Explain returns the interpretable decomposition of an instance's risk:
// every contributing feature (classifier output first) with its share of
// the portfolio, sorted by descending share.
func (m *Model) Explain(inst Instance) []Contribution {
	f := m.fuse(inst)
	out := []Contribution{{
		Description: fmt.Sprintf("classifier output = %.3f", inst.Prob),
		Share:       f.wc / f.S,
		Mu:          inst.Prob,
		Sigma:       f.sigC,
	}}
	for _, j := range inst.Fired {
		w := stats.Softplus(m.rho[j])
		muJ := m.features[j].Mu
		out = append(out, Contribution{
			Description: m.features[j].Rule.String(),
			Share:       w / f.S,
			Mu:          muJ,
			Sigma:       stats.Softplus(m.rsdRaw[j]) * muJ,
		})
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Share > out[b].Share })
	return out
}

// RankedFeature pairs a rule feature with its learned weight for model
// introspection.
type RankedFeature struct {
	Feature Feature
	Weight  float64
	RSD     float64
}

// TopFeatures returns the k rule features with the largest learned weights
// — the knowledge the trained model leans on hardest. k <= 0 returns all.
func (m *Model) TopFeatures(k int) []RankedFeature {
	out := make([]RankedFeature, len(m.features))
	for j := range m.features {
		out[j] = RankedFeature{Feature: m.features[j], Weight: m.Weight(j), RSD: m.RSD(j)}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Weight > out[b].Weight })
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// ErrNoTrainingSignal is returned by Fit when the training data contain no
// mislabeled or no correctly labeled instances — ranking needs both.
var ErrNoTrainingSignal = errors.New("core: training data need at least one mislabeled and one correct instance")
