package nn

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func xorData() ([][]float64, []float64) {
	xs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	ys := []float64{0, 1, 1, 0}
	return xs, ys
}

func TestLearnsXOR(t *testing.T) {
	xs, ys := xorData()
	// Replicate the four points so batches are meaningful.
	var X [][]float64
	var Y []float64
	for i := 0; i < 64; i++ {
		X = append(X, xs[i%4])
		Y = append(Y, ys[i%4])
	}
	net, err := New(Config{Inputs: 2, Hidden: []int{8}, LR: 0.05, Epochs: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Fit(X, Y, nil); err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		p := net.Predict(x)
		if (ys[i] == 1 && p < 0.5) || (ys[i] == 0 && p >= 0.5) {
			t.Errorf("XOR(%v) predicted %f, want class %v", x, p, ys[i])
		}
	}
}

func TestLearnsLinearlySeparable(t *testing.T) {
	rng := stats.NewRNG(4)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 400; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		xs = append(xs, []float64{a, b})
		if a+b > 0 {
			ys = append(ys, 1)
		} else {
			ys = append(ys, 0)
		}
	}
	net, _ := New(Config{Inputs: 2, Hidden: []int{4}, LR: 0.1, Epochs: 100, Seed: 5})
	if err := net.Fit(xs, ys, nil); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, x := range xs {
		p := net.Predict(x)
		if (p >= 0.5) == (ys[i] == 1) {
			correct++
		}
	}
	acc := float64(correct) / float64(len(xs))
	if acc < 0.95 {
		t.Errorf("accuracy %.3f < 0.95 on separable data", acc)
	}
}

func TestFitReducesLoss(t *testing.T) {
	rng := stats.NewRNG(6)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 200; i++ {
		a, b, c := rng.Float64(), rng.Float64(), rng.Float64()
		xs = append(xs, []float64{a, b, c})
		if a*2-b+0.5*c > 0.7 {
			ys = append(ys, 1)
		} else {
			ys = append(ys, 0)
		}
	}
	net, _ := New(Config{Inputs: 3, Hidden: []int{6}, Epochs: 60, Seed: 7})
	before := net.Loss(xs, ys)
	if err := net.Fit(xs, ys, nil); err != nil {
		t.Fatal(err)
	}
	after := net.Loss(xs, ys)
	if after >= before {
		t.Errorf("loss did not decrease: %f -> %f", before, after)
	}
}

func TestPredictionsAreProbabilities(t *testing.T) {
	net, _ := New(Config{Inputs: 4, Hidden: []int{5, 3}, Seed: 9})
	rng := stats.NewRNG(10)
	for i := 0; i < 100; i++ {
		x := []float64{rng.Norm() * 10, rng.Norm() * 10, rng.Norm() * 10, rng.Norm() * 10}
		p := net.Predict(x)
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("Predict = %f, not a probability", p)
		}
	}
}

func TestDeterministicTraining(t *testing.T) {
	xs, ys := xorData()
	mk := func() *Network {
		n, _ := New(Config{Inputs: 2, Hidden: []int{4}, Epochs: 20, Seed: 11})
		_ = n.Fit(xs, ys, nil)
		return n
	}
	a, b := mk(), mk()
	for i, x := range xs {
		if a.Predict(x) != b.Predict(x) {
			t.Fatalf("nondeterministic prediction at %d", i)
		}
	}
}

func TestClassWeights(t *testing.T) {
	// 95:5 imbalance; positive-class upweighting should raise recall.
	rng := stats.NewRNG(12)
	var xs [][]float64
	var ys, w []float64
	for i := 0; i < 500; i++ {
		pos := i%20 == 0
		base := 0.0
		if pos {
			base = 1.0
		}
		xs = append(xs, []float64{base + rng.Norm()*0.4})
		if pos {
			ys = append(ys, 1)
			w = append(w, 10)
		} else {
			ys = append(ys, 0)
			w = append(w, 1)
		}
	}
	weighted, _ := New(Config{Inputs: 1, Hidden: []int{4}, Epochs: 80, Seed: 13})
	_ = weighted.Fit(xs, ys, w)
	plain, _ := New(Config{Inputs: 1, Hidden: []int{4}, Epochs: 80, Seed: 13})
	_ = plain.Fit(xs, ys, nil)
	recall := func(n *Network) float64 {
		tp, fn := 0, 0
		for i, x := range xs {
			if ys[i] == 1 {
				if n.Predict(x) >= 0.5 {
					tp++
				} else {
					fn++
				}
			}
		}
		return float64(tp) / float64(tp+fn)
	}
	if recall(weighted) < recall(plain) {
		t.Errorf("weighted recall %.3f < unweighted %.3f", recall(weighted), recall(plain))
	}
}

func TestHiddenRepresentation(t *testing.T) {
	net, _ := New(Config{Inputs: 3, Hidden: []int{7}, Seed: 14})
	h := net.Hidden([]float64{1, 2, 3})
	if len(h) != 7 {
		t.Fatalf("hidden width = %d, want 7", len(h))
	}
	// Mutating the returned slice must not corrupt the network.
	h[0] = 999
	h2 := net.Hidden([]float64{1, 2, 3})
	if h2[0] == 999 {
		t.Error("Hidden returned internal state")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Inputs: 0}); err == nil {
		t.Error("zero inputs should fail")
	}
	net, _ := New(Config{Inputs: 2})
	if err := net.Fit([][]float64{{1, 2}}, []float64{1, 0}, nil); err == nil {
		t.Error("length mismatch should fail")
	}
	if err := net.Fit(nil, nil, nil); err == nil {
		t.Error("empty training set should fail")
	}
	if err := net.Fit([][]float64{{1}}, []float64{1}, nil); err == nil {
		t.Error("wrong input width should fail")
	}
}

// TestActivations pins the activation run applies by layer position:
// ReLU on the hidden layer (a negative pre-activation gives 0, a positive
// one passes through) and the sigmoid on the output.
func TestActivations(t *testing.T) {
	net, _ := New(Config{Inputs: 1, Hidden: []int{2}, Seed: 17})
	hid, out := net.layers[0], net.layers[1]
	copy(hid.W, []float64{1, -1})
	copy(hid.B, []float64{0, 0.5})
	copy(out.W, []float64{1, 2})
	out.B[0] = -1
	s := net.NewFwdScratch()
	acts := s.acts
	for _, tc := range []struct{ x, h0, h1 float64 }{
		{2, 2, 0},    // second unit: -2 + 0.5 < 0
		{-3, 0, 3.5}, // first unit: -3 < 0
		{0.25, 0.25, 0.25},
	} {
		p := net.run([]float64{tc.x}, s)
		if acts[0][0] != tc.h0 || acts[0][1] != tc.h1 {
			t.Errorf("x=%v: hidden %v, want [%v %v]", tc.x, acts[0], tc.h0, tc.h1)
		}
		want := stats.Sigmoid(-1 + tc.h0 + 2*tc.h1)
		if p != want || acts[1][0] != want {
			t.Errorf("x=%v: output %v, want sigmoid %v", tc.x, p, want)
		}
	}
}

func TestGradientMatchesFiniteDifference(t *testing.T) {
	// Verify backprop on a tiny network against numeric differentiation.
	net, _ := New(Config{Inputs: 2, Hidden: []int{3}, Epochs: 1, Seed: 16})
	x := []float64{0.3, -0.7}
	y := 1.0
	loss := func() float64 { return net.Loss([][]float64{x}, []float64{y}) }

	// Analytic gradient of the first layer's first weight via one
	// trainBatch call with lr captured manually.
	l := net.layers[0]
	const eps = 1e-6
	orig := l.W[0]
	l.W[0] = orig + eps
	up := loss()
	l.W[0] = orig - eps
	down := loss()
	l.W[0] = orig
	numeric := (up - down) / (2 * eps)

	gradW := make([][]float64, len(net.layers))
	gradB := make([][]float64, len(net.layers))
	for li, lay := range net.layers {
		gradW[li] = make([]float64, len(lay.W))
		gradB[li] = make([]float64, len(lay.B))
	}
	// Recompute the analytic gradient exactly as trainBatch does.
	fwd := net.NewFwdScratch()
	p := net.run(x, fwd)
	acts := append([][]float64{x}, fwd.acts...)
	delta := []float64{p - y}
	for li := len(net.layers) - 1; li >= 0; li-- {
		lay := net.layers[li]
		in := acts[li]
		for o := 0; o < lay.Out; o++ {
			gradB[li][o] += delta[o]
			row := gradW[li][o*lay.In : (o+1)*lay.In]
			for j, v := range in {
				row[j] += delta[o] * v
			}
		}
		if li == 0 {
			break
		}
		prev := net.layers[li-1]
		nd := make([]float64, prev.Out)
		for j := 0; j < prev.Out; j++ {
			s := 0.0
			for o := 0; o < lay.Out; o++ {
				s += lay.W[o*lay.In+j] * delta[o]
			}
			if acts[li][j] > 0 { // ReLU'
				nd[j] = s
			}
		}
		delta = nd
	}
	if math.Abs(gradW[0][0]-numeric) > 1e-4*(1+math.Abs(numeric)) {
		t.Errorf("analytic grad %g vs numeric %g", gradW[0][0], numeric)
	}
}

// TestPredictScratchMatchesPredict pins the allocation-free inference path
// against Predict and against the reference forward loop of
// reference_train_test.go: on dense rows, and bit for bit in every layer
// on zeroSet's rows through a network with dead hidden units.
func TestPredictScratchMatchesPredict(t *testing.T) {
	net, err := New(Config{Inputs: 7, Hidden: []int{16, 8}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := net.NewFwdScratch()
	rng := func(i, j int) float64 { return math.Sin(float64(i*31 + j)) }
	xs := make([][]float64, 50)
	for i := range xs {
		xs[i] = make([]float64, 7)
		for j := range xs[i] {
			xs[i][j] = rng(i, j)
		}
	}
	for i, x := range xs {
		if got, want := net.PredictScratch(x, s), net.Predict(x); got != want {
			t.Fatalf("input %d: PredictScratch=%v Predict=%v", i, got, want)
		}
		acts := net.referenceForwardTrain(x)
		if got, want := net.PredictScratch(x, s), acts[len(acts)-1][0]; got != want {
			t.Fatalf("input %d: PredictScratch=%v reference=%v", i, got, want)
		}
	}

	zeros, _, _ := zeroSet()
	dead, err := New(Config{Inputs: 12, Hidden: []int{16, 8}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	killUnits(dead)
	ds := dead.NewFwdScratch()
	for i, x := range zeros {
		p := dead.PredictScratch(x, ds)
		if math.Float64bits(p) != math.Float64bits(dead.Predict(x)) {
			t.Fatalf("zero row %d: PredictScratch=%v Predict=%v", i, p, dead.Predict(x))
		}
		ref := dead.referenceForwardTrain(x)
		for li, acts := range ds.acts {
			for o, v := range acts {
				if math.Float64bits(v) != math.Float64bits(ref[li+1][o]) {
					t.Fatalf("zero row %d: layer %d output %d = %v, reference %v", i, li, o, v, ref[li+1][o])
				}
			}
		}
	}
}

// TestPredictScratchSteadyStateAllocs pins the scratch inference path to
// zero allocations (part of `make allocs`).
func TestPredictScratchSteadyStateAllocs(t *testing.T) {
	net, err := New(Config{Inputs: 7, Hidden: []int{16, 8}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := net.NewFwdScratch()
	x := make([]float64, 7)
	for j := range x {
		x[j] = math.Sin(float64(j))
	}
	net.PredictScratch(x, s) // warm
	allocs := testing.AllocsPerRun(200, func() {
		net.PredictScratch(x, s)
	})
	if allocs != 0 {
		t.Fatalf("PredictScratch allocates %v/op, want 0", allocs)
	}
}

// TestRestoreChecksActivationCodes round-trips a network through Snapshot
// and Restore bit for bit, and checks that Restore refuses an activation
// code that does not match the layer's position: codes no layer applies,
// a hidden layer marked sigmoid and an output layer marked ReLU.
func TestRestoreChecksActivationCodes(t *testing.T) {
	net, _ := New(Config{Inputs: 3, Hidden: []int{4, 2}, Seed: 18})
	snap := net.Snapshot()
	for li, want := range []int{0, 0, 1} {
		if snap.Layers[li].Act != want {
			t.Fatalf("layer %d snapshot activation code %d, want %d", li, snap.Layers[li].Act, want)
		}
	}
	back, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.3, -1.2, 2}
	if back.Predict(x) != net.Predict(x) {
		t.Fatalf("restored network predicts %v, original %v", back.Predict(x), net.Predict(x))
	}
	for _, tc := range []struct {
		name       string
		layer, act int
	}{
		{"code 2", 0, 2},
		{"code 3", 2, 3},
		{"hidden layer marked sigmoid", 1, 1},
		{"output layer marked ReLU", 2, 0},
	} {
		bad := net.Snapshot()
		bad.Layers[tc.layer].Act = tc.act
		if _, err := Restore(bad); err == nil {
			t.Errorf("%s: Restore accepted activation code %d on layer %d", tc.name, tc.act, tc.layer)
		}
	}
}
