package dtree

import (
	"repro/internal/rules"
	"repro/internal/stats"
)

// CARTConfig controls two-sided tree construction.
type CARTConfig struct {
	MaxDepth      int // default 4 (the depth used for the HoloClean rules)
	MinLeaf       int // default 5
	FeatureSubset int // columns sampled per split; 0 = all (forest sets sqrt)
	Seed          uint64
}

func (c CARTConfig) withDefaults() CARTConfig {
	if c.MaxDepth == 0 {
		c.MaxDepth = 4
	}
	if c.MinLeaf == 0 {
		c.MinLeaf = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Node is a two-sided decision tree node. Leaves carry the match
// probability of their training subset.
type Node struct {
	Leaf      bool
	Feature   int
	Name      string
	Threshold float64
	Left      *Node // values <= Threshold
	Right     *Node // values > Threshold
	Prob      float64
	Count     int
}

// BuildCART grows a two-sided CART over the rows idx of the metric matrix X
// with labels y and column names.
func BuildCART(X [][]float64, y []bool, idx []int, names []string, cfg CARTConfig) *Node {
	cfg = cfg.withDefaults()
	rng := stats.NewRNG(cfg.Seed)
	return growCART(X, y, idx, names, cfg, rng, 0, make([]splitVal, len(idx)))
}

// growCART grows the subtree over idx; buf is bestSplit's scratch, sized
// for the root's rows.
func growCART(X [][]float64, y []bool, idx []int, names []string,
	cfg CARTConfig, rng *stats.RNG, depth int, buf []splitVal) *Node {

	counts := rawCounts(y, idx)
	leaf := func() *Node {
		total := counts.match + counts.unmatch
		p := 0.5
		if total > 0 {
			p = counts.match / total
		}
		return &Node{Leaf: true, Prob: p, Count: counts.n}
	}
	if depth >= cfg.MaxDepth || counts.n < 2*cfg.MinLeaf || counts.gini() == 0 {
		return leaf()
	}

	cols := candidateColumns(len(names), cfg.FeatureSubset, rng)
	best := splitResult{score: 1e18}
	bestCol := -1
	for _, c := range cols {
		res := bestSplit(X, y, idx, c, 1, cfg.MinLeaf, twoSidedGini, buf)
		if res.ok && res.score < best.score {
			best = res
			bestCol = c
		}
	}
	if bestCol < 0 {
		return leaf()
	}

	var li, ri []int
	for _, i := range idx {
		if X[i][bestCol] <= best.threshold {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	return &Node{
		Feature:   bestCol,
		Name:      names[bestCol],
		Threshold: best.threshold,
		Left:      growCART(X, y, li, names, cfg, rng, depth+1, buf),
		Right:     growCART(X, y, ri, names, cfg, rng, depth+1, buf),
		Count:     counts.n,
	}
}

func candidateColumns(m, subset int, rng *stats.RNG) []int {
	all := make([]int, m)
	for i := range all {
		all[i] = i
	}
	if subset <= 0 || subset >= m {
		return all
	}
	return rng.Sample(m, subset)
}

// Predict returns the tree's match probability for metric vector x.
func (n *Node) Predict(x []float64) float64 {
	for !n.Leaf {
		if x[n.Feature] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Prob
}

// Rules flattens the tree into two-sided labeling rules: one per leaf, the
// RHS class being the leaf majority. These are the rules HoloClean-style
// inference consumes (Section 7.3).
func (n *Node) Rules() []rules.Rule {
	var out []rules.Rule
	var walk func(nd *Node, path []rules.Predicate)
	walk = func(nd *Node, path []rules.Predicate) {
		if nd.Leaf {
			preds := make([]rules.Predicate, len(path))
			copy(preds, path)
			p := nd.Prob
			match := p >= 0.5
			pur := p
			if !match {
				pur = 1 - p
			}
			out = append(out, rules.Rule{
				Predicates: preds, Match: match,
				Support: nd.Count, Purity: pur,
			})
			return
		}
		walk(nd.Left, append(path, rules.Predicate{
			Metric: nd.Feature, Name: nd.Name, Op: rules.LE, Threshold: nd.Threshold}))
		walk(nd.Right, append(path, rules.Predicate{
			Metric: nd.Feature, Name: nd.Name, Op: rules.GT, Threshold: nd.Threshold}))
	}
	walk(n, nil)
	return out
}

// Forest is a bootstrap ensemble of CART trees with per-split feature
// subsampling (Breiman random forest [9]).
type Forest struct {
	Trees []*Node
}

// BuildForest grows nTrees trees on bootstrap resamples of idx.
func BuildForest(X [][]float64, y []bool, idx []int, names []string, nTrees int, cfg CARTConfig) *Forest {
	cfg = cfg.withDefaults()
	if nTrees <= 0 {
		nTrees = 10
	}
	if cfg.FeatureSubset == 0 {
		cfg.FeatureSubset = isqrt(len(names))
	}
	rng := stats.NewRNG(cfg.Seed)
	f := &Forest{}
	for t := 0; t < nTrees; t++ {
		resample := make([]int, len(idx))
		for j := range resample {
			resample[j] = idx[rng.Intn(len(idx))]
		}
		treeCfg := cfg
		treeCfg.Seed = cfg.Seed + uint64(t) + 1
		f.Trees = append(f.Trees, BuildCART(X, y, resample, names, treeCfg))
	}
	return f
}

func isqrt(n int) int {
	r := 1
	for r*r < n {
		r++
	}
	return r
}

// Predict returns the forest's mean match probability for x.
func (f *Forest) Predict(x []float64) float64 {
	if len(f.Trees) == 0 {
		return 0.5
	}
	s := 0.0
	for _, t := range f.Trees {
		s += t.Predict(x)
	}
	return s / float64(len(f.Trees))
}

// Rules returns the deduplicated two-sided rules of all trees.
func (f *Forest) Rules() []rules.Rule {
	var all []rules.Rule
	for _, t := range f.Trees {
		all = append(all, t.Rules()...)
	}
	return rules.Dedup(all)
}
