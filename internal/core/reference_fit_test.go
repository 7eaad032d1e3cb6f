package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/par"
	"repro/internal/stats"
)

// This file keeps the block-sharded parallel fit as the reference the
// sampled-only serial FitCtx is checked against: every epoch fuses all
// instances in a par.For, then re-fuses each instance with a nonzero
// pairwise coefficient in parallel blocks of fitBlock, computing its
// gradient into a per-instance shard that mergeShard folds into the global
// gradient in instance order.

// fitBlock is the instance-block granularity of parallel backpropagation.
// Blocks bound the per-instance gradient shard memory; the shards merge in
// instance order, so the accumulated gradient is bit-identical to the
// serial loop whatever the worker count.
const fitBlock = 64

// referenceFit is the block-sharded FitCtx.
func (m *Model) referenceFit(ctx context.Context, insts []Instance, mislabeled []bool, progress func(done, total int)) error {
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
	gammas := make([]float64, len(insts))
	coef := make([]float64, len(insts))
	shards := make([]float64, fitBlock*P) // per-instance gradient shards, zeroed outside touched slots

	allPairs := len(misIdx) * len(corIdx)
	sample := m.cfg.PairSample
	if sample > allPairs {
		sample = allPairs
	}

	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		m.fillParamCache(pc)

		// Forward: surrogate VaR for every instance, in parallel
		// (disjoint per-instance writes).
		par.For(len(insts), func(i int) {
			gammas[i] = m.surrogate(m.fuseCached(insts[i], pc), insts[i].Label)
		})

		// Pairwise loss coefficients dL/dgamma_i accumulated per instance.
		// Kept serial: the sampled variant consumes the RNG sequentially and
		// the dense variant's accumulation order is part of the
		// bit-reproducibility contract.
		for i := range coef {
			coef[i] = 0
		}
		if allPairs == sample {
			for _, mi := range misIdx {
				for _, ci := range corIdx {
					s := stats.Sigmoid(gammas[mi] - gammas[ci])
					coef[mi] += s - 1 // p̄ = 1 for (mislabeled, correct)
					coef[ci] += 1 - s
				}
			}
		} else {
			for k := 0; k < sample; k++ {
				mi := misIdx[rng.Intn(len(misIdx))]
				ci := corIdx[rng.Intn(len(corIdx))]
				s := stats.Sigmoid(gammas[mi] - gammas[ci])
				coef[mi] += s - 1
				coef[ci] += 1 - s
			}
		}
		scale := 1 / float64(sample)

		// Backward: per-instance gradient shards computed in parallel
		// block by block, merged serially in instance order.
		for i := range grads {
			grads[i] = 0
		}
		for lo := 0; lo < len(insts); lo += fitBlock {
			hi := lo + fitBlock
			if hi > len(insts) {
				hi = len(insts)
			}
			par.For(hi-lo, func(k int) {
				i := lo + k
				if coef[i] != 0 {
					m.backpropCached(insts[i], coef[i]*scale, shards[k*P:(k+1)*P], pc)
				}
			})
			for k := 0; k < hi-lo; k++ {
				i := lo + k
				if coef[i] != 0 {
					m.mergeShard(insts[i], shards[k*P:(k+1)*P], grads)
				}
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

// backpropCached accumulates d(coef*gamma)/dparam for one instance into the
// shard (a scratch gradient vector whose touched slots are zero on entry;
// mergeShard re-zeroes them after folding into the global gradient). The
// touched slots are exactly: the fired features' weight and RSD slots, the
// two influence slots, and the instance's bucket slot. Firing lists contain
// each feature at most once, so each slot is written once.
func (m *Model) backpropCached(inst Instance, coef float64, shard []float64, pc *paramCache) {
	f := m.fuseCached(inst, pc)
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
		shard[j] += dW * pc.gw[j]

		dVdSigJ := 2 * w * w * sigJ / (f.S * f.S)
		dRSD := dGdV * dVdSigJ * muJ
		shard[F+j] += dRSD * pc.grsd[j]
	}

	// Classifier-output feature: weight wc = beta + 1 - E with
	// E = exp(-d^2/(2 alpha^2)), expectation p, sigma = bucketRSD * p.
	p := inst.Prob
	dMudWc := (p - f.mu) / f.S
	dVdWc := (2*f.wc*f.sigC*f.sigC)/(f.S*f.S) - 2*f.vr/f.S
	dWc := dGdMu*dMudWc + dGdV*dVdWc

	d := p - 0.5
	E := math.Exp(-d * d / (2 * pc.alpha * pc.alpha))
	dWcdAlpha := -E * d * d / (pc.alpha * pc.alpha * pc.alpha)
	shard[2*F] += dWc * dWcdAlpha * pc.galpha
	shard[2*F+1] += dWc * pc.gbeta // dwc/dbeta = 1

	dVdSigC := 2 * f.wc * f.wc * f.sigC / (f.S * f.S)
	dBucket := dGdV * dVdSigC * p
	shard[2*F+2+f.bucket] += dBucket * pc.gbucket[f.bucket]
}

// mergeShard folds one instance's gradient shard into the global gradient,
// visiting the touched slots in the same order the serial loop wrote them,
// and re-zeroes the shard for reuse.
func (m *Model) mergeShard(inst Instance, shard, grads []float64) {
	F := len(m.features)
	for _, j := range inst.Fired {
		grads[j] += shard[j]
		shard[j] = 0
		grads[F+j] += shard[F+j]
		shard[F+j] = 0
	}
	grads[2*F] += shard[2*F]
	shard[2*F] = 0
	grads[2*F+1] += shard[2*F+1]
	shard[2*F+1] = 0
	b := 2*F + 2 + m.cal.Bucket(inst.Prob)
	grads[b] += shard[b]
	shard[b] = 0
}

// fitBytes trains a fresh model on syntheticRiskData with fit and returns
// its Save bytes.
func fitBytes(t *testing.T, n int, cfg Config, fit func(*Model, []Instance, []bool) error) []byte {
	t.Helper()
	insts, bad := syntheticRiskData(n, 21)
	m, err := New(mkFeatures(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fit(m, insts, bad); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFitMatchesReference pins FitCtx to the block-sharded reference fit:
// the same learned parameters, byte for byte, in the sampled regime (fewer
// pairs per epoch than mislabeled x correct) and the dense one (every
// pair), with and without the variance term, at several worker counts.
// Adam normalizes the gradient, so a last-bit difference in it rarely
// reaches the parameters early in a fit; the regimes train long and fast
// enough to oscillate near the optimum, where such a difference (a
// different summation order, say) does show.
func TestFitMatchesReference(t *testing.T) {
	regimes := []struct {
		name  string
		n     int
		cfg   Config
		dense bool
	}{
		// 600 instances give thousands of (mislabeled, correct) pairs,
		// far more than 256 draws per epoch: the sampled regime.
		{"sampled", 600, Config{Epochs: 200, LR: 0.05, PairSample: 256, Seed: 3}, false},
		{"sampled-novariance", 600, Config{Epochs: 200, LR: 0.05, PairSample: 256, Seed: 3, NoVariance: true}, false},
		// 120 instances give fewer than the default 4096 pairs: the dense
		// regime, every pair every epoch.
		{"dense", 120, Config{Epochs: 200, LR: 0.05, Seed: 5}, true},
		{"dense-novariance", 120, Config{Epochs: 200, LR: 0.05, Seed: 5, NoVariance: true}, true},
	}
	fit := func(m *Model, insts []Instance, bad []bool) error { return m.Fit(insts, bad) }
	ref := func(m *Model, insts []Instance, bad []bool) error {
		return m.referenceFit(context.Background(), insts, bad, nil)
	}
	for _, r := range regimes {
		insts, bad := syntheticRiskData(r.n, 21)
		mis := 0
		for _, b := range bad {
			if b {
				mis++
			}
		}
		pairs := mis * (len(insts) - mis)
		sampleCap := r.cfg.withDefaults().PairSample
		if dense := pairs <= sampleCap; dense != r.dense {
			t.Fatalf("%s: %d pairs against PairSample %d is the wrong regime", r.name, pairs, sampleCap)
		}
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/procs=%d", r.name, workers), func(t *testing.T) {
				prev := runtime.GOMAXPROCS(workers)
				defer runtime.GOMAXPROCS(prev)
				want := fitBytes(t, r.n, r.cfg, ref)
				got := fitBytes(t, r.n, r.cfg, fit)
				if !bytes.Equal(got, want) {
					t.Fatalf("FitCtx parameters differ from the reference fit:\n got %s\nwant %s", got, want)
				}
			})
		}
	}
}
