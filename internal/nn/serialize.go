package nn

import (
	"errors"
	"fmt"

	"repro/internal/stats"
)

// LayerSnapshot is the serializable state of one dense layer.
type LayerSnapshot struct {
	In  int       `json:"in"`
	Out int       `json:"out"`
	Act int       `json:"act"` // actReLU on a hidden layer, actSigmoid on the output layer
	W   []float64 `json:"w"`
	B   []float64 `json:"b"`
}

// The activation codes a snapshot records per layer. A layer's activation
// follows from its position, so Restore only checks the code.
const (
	actReLU    = 0
	actSigmoid = 1
)

// actCode returns the activation code of layer li of a network with the
// given number of layers.
func actCode(li, layers int) int {
	if li == layers-1 {
		return actSigmoid
	}
	return actReLU
}

// Snapshot is the serializable state of a trained network: the architecture
// and weights needed for inference. The optimizer moments and RNG stream are
// deliberately excluded — a restored network predicts bit-identically to the
// original, but further training starts from a fresh optimizer state.
type Snapshot struct {
	Inputs int             `json:"inputs"`
	Layers []LayerSnapshot `json:"layers"`
}

// Snapshot captures the network's inference state.
func (n *Network) Snapshot() Snapshot {
	s := Snapshot{Inputs: n.cfg.Inputs, Layers: make([]LayerSnapshot, len(n.layers))}
	for i, l := range n.layers {
		s.Layers[i] = LayerSnapshot{
			In: l.In, Out: l.Out, Act: actCode(i, len(n.layers)),
			W: append([]float64(nil), l.W...),
			B: append([]float64(nil), l.B...),
		}
	}
	return s
}

// Restore reconstructs a network from a snapshot. Predictions of the
// restored network are bit-identical to the snapshotted one.
func Restore(s Snapshot) (*Network, error) {
	if s.Inputs <= 0 {
		return nil, errors.New("nn: snapshot has non-positive input width")
	}
	if len(s.Layers) == 0 {
		return nil, errors.New("nn: snapshot has no layers")
	}
	n := &Network{cfg: Config{Inputs: s.Inputs}.withDefaults(), rng: stats.NewRNG(1)}
	prev := s.Inputs
	for i, ls := range s.Layers {
		if ls.In != prev {
			return nil, fmt.Errorf("nn: layer %d input width %d does not chain from %d", i, ls.In, prev)
		}
		if ls.Out <= 0 || len(ls.W) != ls.In*ls.Out || len(ls.B) != ls.Out {
			return nil, fmt.Errorf("nn: layer %d has inconsistent shapes (in=%d out=%d |W|=%d |B|=%d)",
				i, ls.In, ls.Out, len(ls.W), len(ls.B))
		}
		if want := actCode(i, len(s.Layers)); ls.Act != want {
			return nil, fmt.Errorf("nn: layer %d of %d has activation code %d, want %d (ReLU hidden layers, sigmoid output)",
				i, len(s.Layers), ls.Act, want)
		}
		n.layers = append(n.layers, &Layer{
			In: ls.In, Out: ls.Out,
			W: append([]float64(nil), ls.W...),
			B: append([]float64(nil), ls.B...),
		})
		prev = ls.Out
	}
	return n, nil
}
