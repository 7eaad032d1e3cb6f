package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/stats"
)

// paramCache holds the softplus-transformed parameters (and their
// gradients) for one epoch. The transforms depend only on the raw
// parameters, which change once per epoch, so computing them per instance —
// as the scalar fuse/backprop path does — wasted a softplus and its exp per
// fired feature per instance. Values are the identical floats the scalar
// path computes, so cached evaluation is bit-identical.
type paramCache struct {
	w    []float64 // softplus(rho)
	gw   []float64 // softplusGrad(rho)
	rsd  []float64 // softplus(rsdRaw)
	grsd []float64 // softplusGrad(rsdRaw)
	sig  []float64 // rsd * mu (the feature sigma)

	alpha, beta   float64
	galpha, gbeta float64

	bsig    []float64 // softplus(bucketR)
	gbucket []float64 // softplusGrad(bucketR)
}

func (m *Model) newParamCache() *paramCache {
	F := len(m.features)
	return &paramCache{
		w: make([]float64, F), gw: make([]float64, F),
		rsd: make([]float64, F), grsd: make([]float64, F), sig: make([]float64, F),
		bsig: make([]float64, len(m.bucketR)), gbucket: make([]float64, len(m.bucketR)),
	}
}

func (m *Model) fillParamCache(pc *paramCache) {
	for j := range m.rho {
		pc.w[j] = stats.Softplus(m.rho[j])
		pc.gw[j] = stats.SoftplusGrad(m.rho[j])
		pc.rsd[j] = stats.Softplus(m.rsdRaw[j])
		pc.grsd[j] = stats.SoftplusGrad(m.rsdRaw[j])
		pc.sig[j] = pc.rsd[j] * m.features[j].Mu
	}
	pc.alpha = stats.Softplus(m.alphaR)
	pc.beta = stats.Softplus(m.betaR)
	pc.galpha = stats.SoftplusGrad(m.alphaR)
	pc.gbeta = stats.SoftplusGrad(m.betaR)
	for b := range m.bucketR {
		pc.bsig[b] = stats.Softplus(m.bucketR[b])
		pc.gbucket[b] = stats.SoftplusGrad(m.bucketR[b])
	}
}

// fuseCached is fuse with the epoch's parameter cache; it computes the same
// floats as the scalar path, and also keeps the influence term for
// backprop.
func (m *Model) fuseCached(inst Instance, pc *paramCache) fusion {
	var f fusion
	d := inst.Prob - 0.5
	f.infl = math.Exp(-d * d / (2 * pc.alpha * pc.alpha))
	f.wc = -f.infl + pc.beta + 1
	f.bucket = m.cal.Bucket(inst.Prob)
	f.sigC = pc.bsig[f.bucket] * inst.Prob
	f.S = f.wc
	numMu := f.wc * inst.Prob
	numVar := f.wc * f.wc * f.sigC * f.sigC
	for _, j := range inst.Fired {
		w := pc.w[j]
		muJ := m.features[j].Mu
		sigJ := pc.sig[j]
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

// Fit tunes the model's learnable parameters — rule weights, rule RSDs, the
// influence-function shape (alpha, beta) and the per-bucket classifier RSDs
// — to rank mislabeled instances above correct ones (Section 6.2). The loss
// is the pairwise cross-entropy of Eq. 15 over sampled (mislabeled,
// correct) instance pairs, with the posterior of Eq. 13; gradients are
// analytic (chain rule through the portfolio aggregation and the smooth VaR
// surrogate) and applied with Adam. L1+L2 regularization is added on the
// rule weights (Section 6.2.3).
//
// An epoch's work scales with its sampled pairs, not with the instance
// count: it draws and records the epoch's pairs, fuses each instance they
// touch once, accumulates the pairwise coefficients in draw order, and
// backpropagates the instances with a nonzero coefficient in ascending
// instance order straight into the gradient, reusing their fusions. When
// PairSample covers every (mislabeled, correct) pair, every epoch takes all
// of them in order and so touches every instance. The fit runs on the
// calling goroutine; for a fixed seed its parameters are the same bits
// whatever GOMAXPROCS is.
func (m *Model) Fit(insts []Instance, mislabeled []bool) error {
	return m.FitCtx(context.Background(), insts, mislabeled, nil)
}

// FitCtx is Fit with cooperative cancellation and progress reporting. The
// context is checked at each epoch boundary: a canceled context aborts the
// remaining epochs and returns ctx.Err(), leaving the model with the
// parameters of the last completed epoch (still usable for scoring, just
// undertrained). progress (optional) is invoked after each completed epoch
// with (epochsDone, epochsTotal). A nil-error FitCtx run is bit-identical
// to Fit: the boundary checks consume no randomness.
func (m *Model) FitCtx(ctx context.Context, insts []Instance, mislabeled []bool, progress func(done, total int)) error {
	if len(insts) != len(mislabeled) {
		return errMismatch(len(insts), len(mislabeled))
	}
	var misIdx, corIdx []int
	for i, bad := range mislabeled {
		if bad {
			misIdx = append(misIdx, i)
		} else {
			corIdx = append(corIdx, i)
		}
	}
	if len(misIdx) == 0 || len(corIdx) == 0 {
		return ErrNoTrainingSignal
	}

	P := m.paramCount()
	opt := newAdam(P, m.cfg.LR)
	rng := stats.NewRNG(m.cfg.Seed)
	pc := m.newParamCache()
	grads := make([]float64, P)
	fused := make([]fusion, len(insts))
	gammas := make([]float64, len(insts))
	coef := make([]float64, len(insts))
	fusedIn := make([]int, len(insts)) // the last epoch (plus one) that fused instance i

	allPairs := len(misIdx) * len(corIdx)
	sample := m.cfg.PairSample
	if sample > allPairs {
		sample = allPairs
	}
	// The epoch's (mislabeled, correct) pairs. When the sample covers
	// every pair they are fixed: all of them, mislabeled-major. Otherwise
	// each epoch draws its own.
	dense := sample == allPairs
	pairs := make([][2]int, 0, sample)
	if dense {
		for _, mi := range misIdx {
			for _, ci := range corIdx {
				pairs = append(pairs, [2]int{mi, ci})
			}
		}
	}

	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		m.fillParamCache(pc)
		if !dense {
			pairs = pairs[:0]
			for k := 0; k < sample; k++ {
				mi := misIdx[rng.Intn(len(misIdx))]
				ci := corIdx[rng.Intn(len(corIdx))]
				pairs = append(pairs, [2]int{mi, ci})
			}
		}

		// Forward: the fusion and surrogate VaR of every instance the
		// pairs touch, once each.
		for _, p := range pairs {
			for _, i := range p {
				if fusedIn[i] != epoch+1 {
					fusedIn[i] = epoch + 1
					fused[i] = m.fuseCached(insts[i], pc)
					gammas[i] = m.surrogate(fused[i], insts[i].Label)
				}
			}
		}

		// Pairwise loss coefficients dL/dgamma_i accumulated per instance
		// in pair order; the order is part of the bit-reproducibility
		// contract.
		for _, p := range pairs {
			mi, ci := p[0], p[1]
			s := stats.Sigmoid(gammas[mi] - gammas[ci])
			coef[mi] += s - 1 // p̄ = 1 for (mislabeled, correct)
			coef[ci] += 1 - s
		}
		scale := 1 / float64(sample)

		// Backward in ascending instance order, re-zeroing coef for the
		// next epoch. Untouched instances have coef 0 and are skipped.
		for i := range grads {
			grads[i] = 0
		}
		for i, c := range coef {
			if c != 0 {
				m.backprop(insts[i], &fused[i], c*scale, grads, pc)
				coef[i] = 0
			}
		}
		m.addRegGradsCached(grads, pc)
		m.applyStep(opt, grads)
		if progress != nil {
			progress(epoch+1, m.cfg.Epochs)
		}
	}
	return nil
}

// Loss returns the current mean pairwise cross-entropy over all
// (mislabeled, correct) pairs — the quantity Fit minimizes (Eq. 15).
func (m *Model) Loss(insts []Instance, mislabeled []bool) float64 {
	var misIdx, corIdx []int
	for i, bad := range mislabeled {
		if bad {
			misIdx = append(misIdx, i)
		} else {
			corIdx = append(corIdx, i)
		}
	}
	if len(misIdx) == 0 || len(corIdx) == 0 {
		return 0
	}
	gammas := make([]float64, len(insts))
	for i, inst := range insts {
		gammas[i] = m.surrogate(m.fuse(inst), inst.Label)
	}
	sum := 0.0
	for _, mi := range misIdx {
		for _, ci := range corIdx {
			s := stats.Sigmoid(gammas[mi] - gammas[ci])
			if s < 1e-15 {
				s = 1e-15
			}
			sum += -math.Log(s) // p̄ = 1
		}
	}
	return sum / float64(len(misIdx)*len(corIdx))
}

// Parameter layout in the flat gradient/optimizer vector:
// [rho_0..rho_{F-1}, rsdRaw_0..rsdRaw_{F-1}, alphaR, betaR, bucketR_0..].
func (m *Model) paramCount() int { return 2*len(m.features) + 2 + len(m.bucketR) }

func (m *Model) applyStep(opt *adam, grads []float64) {
	F := len(m.features)
	opt.step(grads)
	for j := 0; j < F; j++ {
		m.rho[j] -= opt.delta(j)
		m.rsdRaw[j] -= opt.delta(F + j)
	}
	m.alphaR -= opt.delta(2 * F)
	m.betaR -= opt.delta(2*F + 1)
	for b := range m.bucketR {
		m.bucketR[b] -= opt.delta(2*F + 2 + b)
	}
}

// backprop accumulates coef * d(gamma)/d(param) for one instance straight
// into grads, given the instance's fusion f under the same parameter cache.
// The touched slots are exactly: the fired features' weight and RSD slots,
// the two influence slots, and the instance's bucket slot. Firing lists
// contain each feature at most once, so each slot is written once per
// instance. The derivation is the chain rule through the fusion's weighted
// mean mu = sum(w_k mu_k)/S and variance V = sum(w_k^2 sigma_k^2)/S^2, the
// surrogate gamma = mu + z*sqrt(V) (or (1-mu) + z*sqrt(V) for a matching
// label) and the softplus transforms of the raw parameters.
func (m *Model) backprop(inst Instance, f *fusion, coef float64, grads []float64, pc *paramCache) {
	F := len(m.features)

	sgnMu := 1.0
	if inst.Label {
		sgnMu = -1 // gamma = (1-mu) + z*sigma
	}
	sigma := f.sigma
	if sigma < 1e-9 {
		sigma = 1e-9
	}
	dGdMu := coef * sgnMu
	dGdV := coef * m.z / (2 * sigma) // via dsigma/dV = 1/(2 sigma)
	if m.cfg.NoVariance {
		dGdV = 0 // sigma is pinned to zero; no gradient flows through it
	}

	// Rule features.
	for _, j := range inst.Fired {
		w := pc.w[j]
		muJ := m.features[j].Mu
		sigJ := pc.sig[j]

		dMudW := (muJ - f.mu) / f.S
		dVdW := (2*w*sigJ*sigJ)/(f.S*f.S) - 2*f.vr/f.S
		dW := dGdMu*dMudW + dGdV*dVdW
		grads[j] += dW * pc.gw[j]

		dVdSigJ := 2 * w * w * sigJ / (f.S * f.S)
		dRSD := dGdV * dVdSigJ * muJ
		grads[F+j] += dRSD * pc.grsd[j]
	}

	// Classifier-output feature: weight wc = beta + 1 - infl with
	// infl = exp(-d^2/(2 alpha^2)), expectation p, sigma = bucketRSD * p.
	p := inst.Prob
	dMudWc := (p - f.mu) / f.S
	dVdWc := (2*f.wc*f.sigC*f.sigC)/(f.S*f.S) - 2*f.vr/f.S
	dWc := dGdMu*dMudWc + dGdV*dVdWc

	d := p - 0.5
	dWcdAlpha := -f.infl * d * d / (pc.alpha * pc.alpha * pc.alpha)
	grads[2*F] += dWc * dWcdAlpha * pc.galpha
	grads[2*F+1] += dWc * pc.gbeta // dwc/dbeta = 1

	dVdSigC := 2 * f.wc * f.wc * f.sigC / (f.S * f.S)
	dBucket := dGdV * dVdSigC * p
	grads[2*F+2+f.bucket] += dBucket * pc.gbucket[f.bucket]
}

// addRegGradsCached adds the L1+L2 penalty gradients on the rule weights
// using the epoch's cached transforms.
func (m *Model) addRegGradsCached(grads []float64, pc *paramCache) {
	for j := range m.rho {
		g := m.cfg.L1 + 2*m.cfg.L2*pc.w[j] // d/dw (L1*w + L2*w^2); w > 0 so |w| = w
		grads[j] += g * pc.gw[j]
	}
}

// adam is a minimal Adam optimizer over a flat parameter vector; step
// computes the per-parameter deltas which the model then applies to its
// structured parameters.
type adam struct {
	lr      float64
	t       int
	mv, vv  []float64
	deltas  []float64
	b1, b2  float64
	epsilon float64
}

func newAdam(n int, lr float64) *adam {
	return &adam{
		lr: lr, mv: make([]float64, n), vv: make([]float64, n),
		deltas: make([]float64, n), b1: 0.9, b2: 0.999, epsilon: 1e-8,
	}
}

func (a *adam) step(grads []float64) {
	a.t++
	c1 := 1 - math.Pow(a.b1, float64(a.t))
	c2 := 1 - math.Pow(a.b2, float64(a.t))
	for i, g := range grads {
		a.mv[i] = a.b1*a.mv[i] + (1-a.b1)*g
		a.vv[i] = a.b2*a.vv[i] + (1-a.b2)*g*g
		a.deltas[i] = a.lr * (a.mv[i] / c1) / (math.Sqrt(a.vv[i]/c2) + a.epsilon)
	}
}

func (a *adam) delta(i int) float64 { return a.deltas[i] }

func errMismatch(a, b int) error {
	return fmt.Errorf("core: %d instances vs %d labels", a, b)
}
