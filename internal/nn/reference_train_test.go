package nn

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// This file keeps the allocating training step as the reference the
// scratch-based trainBatch is checked against: it allocates activations
// and deltas per sample and gradients per minibatch, and runs its own
// forward loop.

// referenceForwardTrain runs the network, keeping per-layer activations for
// backprop: ReLU on hidden layers, the sigmoid on the output layer.
func (n *Network) referenceForwardTrain(x []float64) [][]float64 {
	acts := make([][]float64, len(n.layers)+1)
	acts[0] = x
	cur := x
	for li, l := range n.layers {
		out := make([]float64, l.Out)
		for o := 0; o < l.Out; o++ {
			s := l.B[o]
			row := l.W[o*l.In : (o+1)*l.In]
			for i, v := range cur {
				s += row[i] * v
			}
			out[o] = s
			if li == len(n.layers)-1 {
				out[o] = stats.Sigmoid(s)
			} else if s < 0 { // ReLU
				out[o] = 0
			}
		}
		acts[li+1] = out
		cur = out
	}
	return acts
}

// referenceTrainBatch accumulates gradients over the batch and applies one
// update.
func (n *Network) referenceTrainBatch(xs [][]float64, ys, weights []float64, batch []int) {
	gradW := make([][]float64, len(n.layers))
	gradB := make([][]float64, len(n.layers))
	for li, l := range n.layers {
		gradW[li] = make([]float64, len(l.W))
		gradB[li] = make([]float64, len(l.B))
	}
	for _, i := range batch {
		acts := n.referenceForwardTrain(xs[i])
		wgt := 1.0
		if weights != nil {
			wgt = weights[i]
		}
		// Output delta for sigmoid + BCE: (p - y).
		p := acts[len(acts)-1][0]
		delta := []float64{(p - ys[i]) * wgt}
		for li := len(n.layers) - 1; li >= 0; li-- {
			l := n.layers[li]
			in := acts[li]
			for o := 0; o < l.Out; o++ {
				gradB[li][o] += delta[o]
				row := gradW[li][o*l.In : (o+1)*l.In]
				for j, v := range in {
					row[j] += delta[o] * v
				}
			}
			if li == 0 {
				break
			}
			prev := n.layers[li-1]
			nd := make([]float64, prev.Out)
			for j := 0; j < prev.Out; j++ {
				s := 0.0
				for o := 0; o < l.Out; o++ {
					s += l.W[o*l.In+j] * delta[o]
				}
				g := 0.0 // ReLU'
				if acts[li][j] > 0 {
					g = 1
				}
				nd[j] = s * g
			}
			delta = nd
		}
	}
	scale := 1 / float64(len(batch))
	n.step++
	for li, l := range n.layers {
		n.applyUpdate(l, gradW[li], gradB[li], scale)
	}
}

// referenceFit is FitCtx's epoch loop over referenceTrainBatch.
func (n *Network) referenceFit(xs [][]float64, ys, weights []float64) {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	for epoch := 0; epoch < n.cfg.Epochs; epoch++ {
		n.rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += batchSize {
			end := min(start+batchSize, len(idx))
			n.referenceTrainBatch(xs, ys, weights, idx[start:end])
		}
	}
}

// trainingSet is a small imbalanced, class-weighted problem whose batch
// size does not divide the row count, so the last minibatch is short.
func trainingSet() (xs [][]float64, ys, weights []float64) {
	rng := stats.NewRNG(21)
	for i := 0; i < 203; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Norm(), rng.Float64()}
		y, w := 0.0, 1.0
		if x[0]+0.5*x[1]-0.3*x[2] > 1.1 {
			y, w = 1, 3
		}
		xs = append(xs, x)
		ys = append(ys, y)
		weights = append(weights, w)
	}
	return xs, ys, weights
}

// TestTrainBatchMatchesReference pins the scratch training step to the
// allocating reference: two networks from one seed, trained by Fit and by
// the reference loop, end with bit-identical weights and biases. Its one
// subtest keeps the name of the configuration the network still has: no
// dropout, Adam.
func TestTrainBatchMatchesReference(t *testing.T) {
	xs, ys, weights := trainingSet()
	t.Run("dropout=0/adam=true", func(t *testing.T) {
		cfg := Config{Inputs: 4, Hidden: []int{8, 5}, LR: 0.05, Epochs: 6, L2: 1e-4, Seed: 31}
		got, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := New(cfg)
		if err := got.Fit(xs, ys, weights); err != nil {
			t.Fatal(err)
		}
		want.referenceFit(xs, ys, weights)
		for li := range want.layers {
			g, w := got.layers[li], want.layers[li]
			for j := range w.W {
				if math.Float64bits(g.W[j]) != math.Float64bits(w.W[j]) {
					t.Fatalf("layer %d W[%d] = %v, reference %v", li, j, g.W[j], w.W[j])
				}
			}
			for j := range w.B {
				if math.Float64bits(g.B[j]) != math.Float64bits(w.B[j]) {
					t.Fatalf("layer %d B[%d] = %v, reference %v", li, j, g.B[j], w.B[j])
				}
			}
		}
		if got.step != want.step || got.rng.Uint64() != want.rng.Uint64() {
			t.Fatal("training consumed a different number of steps or RNG draws than the reference")
		}
	})
}

// TestTrainBatchSteadyStateAllocs pins a training step to zero allocations
// once the scratch and the Adam moments exist (part of `make allocs`).
func TestTrainBatchSteadyStateAllocs(t *testing.T) {
	xs, ys, weights := trainingSet()
	net, err := New(Config{Inputs: 4, Hidden: []int{16, 8}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := net.newTrainScratch()
	batch := []int{0, 5, 17, 42, 99, 150, 202}
	net.trainBatch(xs, ys, weights, batch, s) // sizes the Adam moments
	allocs := testing.AllocsPerRun(100, func() {
		net.trainBatch(xs, ys, weights, batch, s)
	})
	if allocs != 0 {
		t.Fatalf("trainBatch allocates %v/op, want 0", allocs)
	}
}
