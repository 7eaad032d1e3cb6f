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

// zeroSet is a class-weighted problem shaped like the matcher's AG rows:
// 12 inputs, most in [0, 1], about a quarter of the cells exact zeros,
// half of them 0 and half −0, as a similarity metric reads on disjoint
// values. Like trainingSet it ends in a short minibatch.
func zeroSet() (xs [][]float64, ys, weights []float64) {
	rng := stats.NewRNG(22)
	for i := 0; i < 203; i++ {
		x := make([]float64, 12)
		for j := range x {
			switch u := rng.Float64(); {
			case u < 0.125:
				x[j] = 0
			case u < 0.25:
				x[j] = math.Copysign(0, -1)
			case j == 11:
				x[j] = rng.Norm()
			default:
				x[j] = rng.Float64()
			}
		}
		y, w := 0.0, 1.0
		if x[0]+0.5*x[1]-0.3*x[11]+x[5] > 1.2 {
			y, w = 1, 3
		}
		xs = append(xs, x)
		ys = append(ys, y)
		weights = append(weights, w)
	}
	return xs, ys, weights
}

// killUnits gives every third hidden unit a bias of -100, far below
// anything its inputs can reach in zeroSet, so the unit's ReLU output is 0
// on every row and stays so through training (its bias gradient is 0).
func killUnits(n *Network) {
	for _, l := range n.layers[:len(n.layers)-1] {
		for o := 0; o < l.Out; o += 3 {
			l.B[o] = -100
		}
	}
}

// fitMatchesReference trains two networks built from cfg, and prepared by
// prep when it is not nil, one by Fit and one by referenceFit, and fails
// unless both end with bit-identical weights, biases and Adam moments,
// the same Adam step and the same position in their RNG streams.
func fitMatchesReference(t *testing.T, cfg Config, xs [][]float64, ys, weights []float64, prep func(*Network)) {
	t.Helper()
	got, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := New(cfg)
	if prep != nil {
		prep(got)
		prep(want)
	}
	if err := got.Fit(xs, ys, weights); err != nil {
		t.Fatal(err)
	}
	want.referenceFit(xs, ys, weights)
	for li := range want.layers {
		g, w := got.layers[li], want.layers[li]
		for _, p := range []struct {
			name      string
			got, want []float64
		}{
			{"W", g.W, w.W}, {"B", g.B, w.B},
			{"mW", g.mW, w.mW}, {"vW", g.vW, w.vW}, {"mB", g.mB, w.mB}, {"vB", g.vB, w.vB},
		} {
			if len(p.got) != len(p.want) {
				t.Fatalf("layer %d %s has %d entries, reference %d", li, p.name, len(p.got), len(p.want))
			}
			for j := range p.want {
				if math.Float64bits(p.got[j]) != math.Float64bits(p.want[j]) {
					t.Fatalf("layer %d %s[%d] = %v, reference %v", li, p.name, j, p.got[j], p.want[j])
				}
			}
		}
	}
	if got.step != want.step || got.rng.Uint64() != want.rng.Uint64() {
		t.Fatal("training consumed a different number of steps or RNG draws than the reference")
	}
}

// TestTrainBatchMatchesReference pins the scratch training step to the
// allocating reference: two networks from one seed, trained by Fit and by
// the reference loop, end bit-identical. The first subtest keeps the name
// of the configuration the network still has: no dropout, Adam. The
// second trains on zeroSet with dead hidden units, so every zero-skipping
// branch of the forward and backward loops is taken.
func TestTrainBatchMatchesReference(t *testing.T) {
	t.Run("dropout=0/adam=true", func(t *testing.T) {
		xs, ys, weights := trainingSet()
		cfg := Config{Inputs: 4, Hidden: []int{8, 5}, LR: 0.05, Epochs: 6, L2: 1e-4, Seed: 31}
		fitMatchesReference(t, cfg, xs, ys, weights, nil)
	})
	t.Run("zero-inputs-dead-units", func(t *testing.T) {
		xs, ys, weights := zeroSet()
		cfg := Config{Inputs: 12, Hidden: []int{16, 8}, LR: 0.05, Epochs: 6, L2: 1e-4, Seed: 31}
		fitMatchesReference(t, cfg, xs, ys, weights, killUnits)
	})
}

// fuzzCell decodes one input cell from a byte: its residue mod 6 picks
// the kind (0, −0, the similarity scale (0, 1], negative, subnormal or
// large) and its quotient the magnitude. Every cell is finite, the range
// in which the zero-skipping loops promise bit-identity.
func fuzzCell(b byte) float64 {
	q := float64(b/6 + 1) // 1..43
	switch b % 6 {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return q / 43
	case 3:
		return -q / 8
	case 4:
		return q * 1e-310
	default:
		return q * 1e4
	}
}

// agShapedCells encodes rows the way the matcher sees AG pairs: 12
// similarity inputs in [0, 1], about a quarter of them exactly 0 or −0.
func agShapedCells(seed uint64, rows int) []byte {
	rng := stats.NewRNG(seed)
	cells := make([]byte, 12*rows)
	for i := range cells {
		switch u := rng.Float64(); {
		case u < 0.125:
			cells[i] = 0
		case u < 0.25:
			cells[i] = 1
		default:
			cells[i] = byte(6*rng.Intn(43) + 2)
		}
	}
	return cells
}

// FuzzTrainBatchMatchesReference trains the fuzzed network a few epochs
// by Fit and by referenceFit and compares them bit for bit. The input
// picks the input width (1 + in%12), the hidden widths (none when h1%17
// is 0, the HoloClean baseline's logistic regression; else h1%17 units
// and, when h2%9 is not 0, a second layer of h2%9), which hidden units
// start dead (bit u%16 of dead gives hidden unit u a bias of -2), the
// seed (weights, minibatch order, labels and class weights) and up to 64
// rows of cells decoded by fuzzCell.
func FuzzTrainBatchMatchesReference(f *testing.F) {
	f.Add(uint8(11), uint8(16), uint8(8), uint16(0), uint64(1), agShapedCells(1, 40))
	f.Add(uint8(11), uint8(16), uint8(8), uint16(0x0421), uint64(7), agShapedCells(2, 33))
	f.Add(uint8(11), uint8(0), uint8(0), uint16(0), uint64(3), agShapedCells(3, 64))
	f.Add(uint8(3), uint8(5), uint8(0), uint16(0x0003), uint64(9), []byte{0, 1, 2, 3, 4, 5, 250, 251, 252, 253, 254, 255, 6, 7, 8, 9, 10, 11})
	f.Fuzz(func(t *testing.T, in, h1, h2 uint8, dead uint16, seed uint64, cells []byte) {
		inputs := 1 + int(in%12)
		var hidden []int
		if h1%17 != 0 {
			hidden = append(hidden, int(h1%17))
			if h2%9 != 0 {
				hidden = append(hidden, int(h2%9))
			}
		}
		rows := min(len(cells)/inputs, 64)
		if rows == 0 {
			return
		}
		rng := stats.NewRNG(seed)
		xs := make([][]float64, rows)
		ys := make([]float64, rows)
		weights := make([]float64, rows)
		for k := range xs {
			xs[k] = make([]float64, inputs)
			for j := range xs[k] {
				xs[k][j] = fuzzCell(cells[k*inputs+j])
			}
			ys[k], weights[k] = 0, 1
			if rng.Float64() < 0.3 {
				ys[k], weights[k] = 1, 3
			}
		}
		cfg := Config{Inputs: inputs, Hidden: hidden, LR: 0.05, Epochs: 3, L2: 1e-4, Seed: seed}
		fitMatchesReference(t, cfg, xs, ys, weights, func(n *Network) {
			u := 0
			for _, l := range n.layers[:len(n.layers)-1] {
				for o := range l.B {
					if dead>>(u%16)&1 == 1 {
						l.B[o] = -2
					}
					u++
				}
			}
		})
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
