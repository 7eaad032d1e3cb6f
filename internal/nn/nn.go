// Package nn implements a small dense feedforward neural network with
// backpropagation, the substrate for the repository's DeepMatcher
// substitute: the paper's classifier is DeepMatcher, a PyTorch model, and
// risk analysis needs only a black-box probabilistic classifier. Hidden
// layers are ReLU and the single output unit is a sigmoid; training
// minimizes binary cross-entropy with Adam, L2 weight decay and minibatches
// of 32 — enough to train a realistic, imperfect probabilistic ER
// classifier on similarity feature vectors.
//
// The forward and backward loops skip zeros. ER similarity rows hold many
// exact zeros, and most ReLU units of a trained matcher are dead on any
// one row, so the forward loop sums each layer's nonzero inputs only, and
// backpropagation skips units whose delta is zero (dead units and units
// the ReLU gate closes) and inputs that are zero. The result is
// bit-identical to the dense loops whenever weights and inputs are finite:
// every skipped term is then ±0, and adding ±0 changes an accumulator only
// when the accumulator is −0. No accumulator is: each starts at +0 or at a
// bias, and under round-to-nearest a sum is −0 only when both addends are,
// so a bias that starts at +0 never becomes −0 in training.
package nn

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/stats"
)

// batchSize is the minibatch size of Fit.
const batchSize = 32

// Layer is one dense layer: Out = act(W·In + B), where act is ReLU on a
// hidden layer and the sigmoid on the output layer.
type Layer struct {
	In, Out int
	W       []float64 // Out x In, row-major
	B       []float64 // Out

	// Adam moments (lazily sized by the optimizer).
	mW, vW, mB, vB []float64
}

// Config describes a network and its training hyperparameters.
type Config struct {
	Inputs int
	Hidden []int   // hidden layer widths; output layer (width 1) is implicit
	LR     float64 // Adam learning rate (default 0.01)
	Epochs int     // training epochs (default 50)
	L2     float64 // weight decay
	Seed   uint64
}

func (c Config) withDefaults() Config {
	if c.LR == 0 {
		c.LR = 0.01
	}
	if c.Epochs == 0 {
		c.Epochs = 50
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Network is a feedforward binary classifier: ReLU hidden layers and a
// sigmoid output unit producing a probability.
type Network struct {
	cfg    Config
	layers []*Layer
	rng    *stats.RNG
	step   int // Adam timestep
}

// New constructs a network with He-style initialization, deterministic in
// cfg.Seed.
func New(cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	if cfg.Inputs <= 0 {
		return nil, errors.New("nn: Inputs must be positive")
	}
	n := &Network{cfg: cfg, rng: stats.NewRNG(cfg.Seed)}
	widths := append([]int{cfg.Inputs}, cfg.Hidden...)
	widths = append(widths, 1)
	for i := 1; i < len(widths); i++ {
		l := &Layer{In: widths[i-1], Out: widths[i]}
		l.W = make([]float64, l.In*l.Out)
		l.B = make([]float64, l.Out)
		scale := math.Sqrt(2 / float64(l.In))
		for j := range l.W {
			l.W[j] = n.rng.Norm() * scale
		}
		n.layers = append(n.layers, l)
	}
	return n, nil
}

// run is the network's one forward loop: it evaluates x layer by layer
// into s.acts (s.acts[li] receives layer li's output), applying ReLU on
// hidden layers and the sigmoid on the output layer, and returns the output
// probability.
//
// It sums over nonzero inputs only: s.nz[li] receives the ascending
// positions of layer li's nonzero inputs, and each output's sum starts at
// its bias and adds the terms of those positions in ascending order, four
// outputs per pass. For finite weights and inputs this is bit-identical to
// the dense loop over every input (see the package comment); backprop reads
// the same lists.
func (n *Network) run(x []float64, s *FwdScratch) float64 {
	last := len(n.layers) - 1
	s.nz[0] = nonzero(s.nz[0], x)
	cur := x
	for li, l := range n.layers {
		nz, out := s.nz[li], s.acts[li]
		o := 0
		for ; o+4 <= l.Out; o += 4 {
			r0 := l.W[o*l.In : (o+1)*l.In]
			r1 := l.W[(o+1)*l.In : (o+2)*l.In]
			r2 := l.W[(o+2)*l.In : (o+3)*l.In]
			r3 := l.W[(o+3)*l.In : (o+4)*l.In]
			v0, v1, v2, v3 := l.B[o], l.B[o+1], l.B[o+2], l.B[o+3]
			for _, i := range nz {
				xi := cur[i]
				v0 += r0[i] * xi
				v1 += r1[i] * xi
				v2 += r2[i] * xi
				v3 += r3[i] * xi
			}
			out[o], out[o+1], out[o+2], out[o+3] = v0, v1, v2, v3
		}
		for ; o < l.Out; o++ {
			v := l.B[o]
			row := l.W[o*l.In : (o+1)*l.In]
			for _, i := range nz {
				v += row[i] * cur[i]
			}
			out[o] = v
		}
		if li == last {
			for o, v := range out {
				out[o] = stats.Sigmoid(v)
			}
			break
		}
		for o, v := range out {
			if v < 0 {
				out[o] = 0
			}
		}
		s.nz[li+1] = nonzero(s.nz[li+1], out)
		cur = out
	}
	return s.acts[last][0]
}

// nonzero lists the positions of v's nonzero entries in dst, ascending;
// ±0 is zero, NaN is not. dst needs capacity len(v). Each position is
// written and then kept or overwritten, which compiles to a conditional
// move rather than a branch on the data.
func nonzero(dst []int, v []float64) []int {
	dst = dst[:len(v)]
	k := 0
	for i, x := range v {
		dst[k] = i
		if x != 0 {
			k++
		}
	}
	return dst[:k]
}

// Predict returns the probability that x belongs to the positive class.
func (n *Network) Predict(x []float64) float64 {
	return n.PredictScratch(x, n.NewFwdScratch())
}

// FwdScratch holds the per-layer buffers of allocation-free inference:
// each layer's output and the positions of each layer's nonzero inputs.
// One FwdScratch serves one goroutine at a time; build it with
// NewFwdScratch and reuse it across any number of PredictScratch calls.
type FwdScratch struct {
	acts [][]float64 // acts[li] is layer li's output
	nz   [][]int     // nz[li] lists layer li's nonzero input positions, ascending
}

// NewFwdScratch sizes a forward-pass scratch for this network.
func (n *Network) NewFwdScratch() *FwdScratch {
	outs, ins := 0, 0
	for _, l := range n.layers {
		outs += l.Out
		ins += l.In
	}
	s := &FwdScratch{acts: make([][]float64, len(n.layers)), nz: make([][]int, len(n.layers))}
	accs, idx := make([]float64, outs), make([]int, ins)
	for i, l := range n.layers {
		s.acts[i], accs = accs[:l.Out:l.Out], accs[l.Out:]
		s.nz[i], idx = idx[:0:l.In], idx[l.In:]
	}
	return s
}

// PredictScratch is Predict over caller-provided buffers, with zero heap
// allocations. Results are bit-identical to Predict.
func (n *Network) PredictScratch(x []float64, s *FwdScratch) float64 {
	return n.run(x, s)
}

// Hidden returns the activations of the last hidden layer for x, or a copy
// of the input when the network has no hidden layers. The TrustScore
// baseline clusters in this representation space.
func (n *Network) Hidden(x []float64) []float64 {
	s := n.NewFwdScratch()
	n.run(x, s)
	if len(s.acts) < 2 {
		return append([]float64(nil), x...)
	}
	return s.acts[len(s.acts)-2]
}

// Fit trains the network on (xs, ys) with ys in {0,1}, minimizing binary
// cross-entropy. Class weights may be supplied to counter ER's imbalance;
// nil means uniform.
func (n *Network) Fit(xs [][]float64, ys []float64, weights []float64) error {
	return n.FitCtx(context.Background(), xs, ys, weights, nil)
}

// FitCtx is Fit with cooperative cancellation and progress reporting. The
// context is checked between epochs: a canceled context aborts training and
// returns ctx.Err(), leaving the network in its last completed-epoch state.
// progress (optional) is invoked after each completed epoch with
// (epochsDone, epochsTotal). For a nil-error run the trained network is
// bit-identical to Fit's: the epoch boundary checks consume no randomness.
func (n *Network) FitCtx(ctx context.Context, xs [][]float64, ys []float64, weights []float64, progress func(done, total int)) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("nn: %d inputs vs %d labels", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return errors.New("nn: empty training set")
	}
	for _, x := range xs {
		if len(x) != n.cfg.Inputs {
			return fmt.Errorf("nn: input width %d, want %d", len(x), n.cfg.Inputs)
		}
	}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	ts := n.newTrainScratch()
	for epoch := 0; epoch < n.cfg.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		n.rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += batchSize {
			end := min(start+batchSize, len(idx))
			n.trainBatch(xs, ys, weights, idx[start:end], ts)
		}
		if progress != nil {
			progress(epoch+1, n.cfg.Epochs)
		}
	}
	return nil
}

// trainScratch holds every buffer of a training step, sized once per
// FitCtx call: the forward pass's activations and nonzero-input lists,
// backpropagated deltas and the minibatch gradients.
type trainScratch struct {
	fwd          *FwdScratch
	outUnits     []int // every unit of the output layer
	deltas       [][]float64
	gradW, gradB [][]float64
}

func (n *Network) newTrainScratch() *trainScratch {
	L := len(n.layers)
	s := &trainScratch{
		fwd:    n.NewFwdScratch(),
		deltas: make([][]float64, L),
		gradW:  make([][]float64, L),
		gradB:  make([][]float64, L),
	}
	for li, l := range n.layers {
		s.deltas[li] = make([]float64, l.Out)
		s.gradW[li] = make([]float64, len(l.W))
		s.gradB[li] = make([]float64, len(l.B))
	}
	for o := range n.layers[L-1].Out {
		s.outUnits = append(s.outUnits, o)
	}
	return s
}

// trainBatch accumulates gradients over the batch and applies one update,
// entirely within the training scratch. Backprop visits only what can
// contribute: units with a nonzero delta and nonzero inputs, from the
// forward pass's lists. A hidden unit's delta can be nonzero only where
// its ReLU output is, which is exactly the next layer's nonzero-input
// list; the deltas of other units are never written or read.
func (n *Network) trainBatch(xs [][]float64, ys, weights []float64, batch []int, s *trainScratch) {
	for li := range n.layers {
		clear(s.gradW[li])
		clear(s.gradB[li])
	}
	last := len(n.layers) - 1
	for _, i := range batch {
		p := n.run(xs[i], s.fwd)
		wgt := 1.0
		if weights != nil {
			wgt = weights[i]
		}
		// Output delta for sigmoid + BCE: (p - y).
		s.deltas[last][0] = (p - ys[i]) * wgt
		for li := last; li >= 0; li-- {
			l := n.layers[li]
			in := xs[i]
			if li > 0 {
				in = s.fwd.acts[li-1]
			}
			nzIn := s.fwd.nz[li]
			units := s.outUnits
			if li < last {
				units = s.fwd.nz[li+1]
			}
			delta := s.deltas[li]
			gradW, gradB := s.gradW[li], s.gradB[li]
			for _, o := range units {
				d := delta[o]
				if d == 0 {
					continue
				}
				gradB[o] += d
				row := gradW[o*l.In : (o+1)*l.In]
				for _, j := range nzIn {
					row[j] += d * in[j]
				}
			}
			if li == 0 {
				break
			}
			// Layer li-1 is hidden, so its activation is ReLU, whose
			// derivative is 1 where the activation is positive, else 0:
			// only its nonzero outputs, layer li's nonzero inputs, get a
			// delta.
			nd := s.deltas[li-1]
			for _, j := range nzIn {
				sum := 0.0
				for _, o := range units {
					if d := delta[o]; d != 0 {
						sum += l.W[o*l.In+j] * d
					}
				}
				nd[j] = sum
			}
		}
	}
	scale := 1 / float64(len(batch))
	n.step++
	for li, l := range n.layers {
		n.applyUpdate(l, s.gradW[li], s.gradB[li], scale)
	}
}

// applyUpdate takes one Adam step on l from the minibatch gradients scaled
// by scale, with L2 weight decay on the weights.
func (n *Network) applyUpdate(l *Layer, gW, gB []float64, scale float64) {
	if l.mW == nil {
		l.mW = make([]float64, len(l.W))
		l.vW = make([]float64, len(l.W))
		l.mB = make([]float64, len(l.B))
		l.vB = make([]float64, len(l.B))
	}
	const b1, b2, eps = 0.9, 0.999, 1e-8
	lr := n.cfg.LR
	t := float64(n.step)
	corr1 := 1 - math.Pow(b1, t)
	corr2 := 1 - math.Pow(b2, t)
	for j := range l.W {
		g := gW[j]*scale + n.cfg.L2*l.W[j]
		l.mW[j] = b1*l.mW[j] + (1-b1)*g
		l.vW[j] = b2*l.vW[j] + (1-b2)*g*g
		l.W[j] -= lr * (l.mW[j] / corr1) / (math.Sqrt(l.vW[j]/corr2) + eps)
	}
	for j := range l.B {
		g := gB[j] * scale
		l.mB[j] = b1*l.mB[j] + (1-b1)*g
		l.vB[j] = b2*l.vB[j] + (1-b2)*g*g
		l.B[j] -= lr * (l.mB[j] / corr1) / (math.Sqrt(l.vB[j]/corr2) + eps)
	}
}

// Loss returns the mean binary cross-entropy of the network on (xs, ys).
func (n *Network) Loss(xs [][]float64, ys []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for i, x := range xs {
		p := n.Predict(x)
		p = math.Min(math.Max(p, 1e-12), 1-1e-12)
		sum += -ys[i]*math.Log(p) - (1-ys[i])*math.Log(1-p)
	}
	return sum / float64(len(xs))
}
