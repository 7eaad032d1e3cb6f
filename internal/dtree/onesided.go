package dtree

import (
	"context"
	"sort"

	"repro/internal/rules"
)

// OneSidedConfig controls risk-feature generation (paper Algorithm 1).
type OneSidedConfig struct {
	// MaxDepth is the tree depth bound h (default 3; the paper keeps
	// h <= 4 for interpretability).
	MaxDepth int
	// Impurity is the leaf impurity threshold tau: a leaf qualifies as a
	// rule when its unweighted Gini impurity is at most Impurity
	// (default 0.15).
	Impurity float64
	// MinLeaf is the minimum raw size of an extracted subset (default 5,
	// the paper's "lower threshold on the sheer size").
	MinLeaf int
	// Lambda balances subset size against purity in the one-sided Gini
	// index (default 0.2; the paper suggests low values).
	Lambda float64
	// MatchWeight is the class weight applied to matching instances when
	// generating matching rules (default 1000). Matching rules are
	// re-filtered without the weight, exactly as in the paper.
	MatchWeight float64
	// BranchFactor bounds how many of the 2m candidate (metric, weighting)
	// partitions are expanded per node. Algorithm 1 expands all of them,
	// which is O(h*(2m)^h*n log n); the default of 6 keeps generation
	// interactive while preserving the rule variety the risk model needs.
	// Set to 0 for the faithful full enumeration.
	BranchFactor int
}

func (c OneSidedConfig) withDefaults() OneSidedConfig {
	if c.MaxDepth == 0 {
		c.MaxDepth = 3
	}
	if c.Impurity == 0 {
		c.Impurity = 0.15
	}
	if c.MinLeaf == 0 {
		c.MinLeaf = 5
	}
	if c.Lambda == 0 {
		c.Lambda = 0.2
	}
	if c.MatchWeight == 0 {
		c.MatchWeight = 1000
	}
	if c.BranchFactor == 0 {
		c.BranchFactor = 6
	}
	return c
}

// GenerateRiskFeatures runs the one-sided decision-forest construction of
// Algorithm 1 over the metric matrix X (rows = labeled pairs, columns =
// basic metrics named by names) with ground-truth labels y, and returns the
// deduplicated one-sided rules. Every root-to-leaf path whose leaf is
// sufficiently pure and large becomes a risk feature.
func GenerateRiskFeatures(X [][]float64, y []bool, names []string, cfg OneSidedConfig) []rules.Rule {
	out, _ := GenerateRiskFeaturesCtx(context.Background(), X, y, names, cfg)
	return out
}

// GenerateRiskFeaturesCtx is GenerateRiskFeatures with cooperative
// cancellation: the context is checked at every tree node before its
// candidate partitions are scored (the expensive step), and a canceled
// context aborts the remaining construction and returns ctx.Err(). With a
// background context the generated rules are identical to
// GenerateRiskFeatures.
func GenerateRiskFeaturesCtx(ctx context.Context, X [][]float64, y []bool, names []string, cfg OneSidedConfig) ([]rules.Rule, error) {
	cfg = cfg.withDefaults()
	if len(X) == 0 {
		return nil, ctx.Err()
	}
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	g := &onesidedGen{ctx: ctx, X: X, y: y, names: names, cfg: cfg, buf: make([]splitVal, len(X))}
	g.construct(idx, 0, nil)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return rules.Dedup(g.out), nil
}

type onesidedGen struct {
	ctx   context.Context
	X     [][]float64
	y     []bool
	names []string
	cfg   OneSidedConfig
	out   []rules.Rule
	buf   []splitVal // bestSplit's scratch, one value per row of X
}

// branch is one candidate partition: a threshold on a column under one
// class weighting, with the resulting sides.
type branch struct {
	col       int
	weight    float64
	threshold float64
	score     float64
}

// construct is the recursive body of Algorithm 1: at each node it ranks the
// candidate (metric, weighting) partitions by one-sided Gini, expands the
// best ones, harvests qualifying pure sides as rules, and recurses into the
// impurer sides.
func (g *onesidedGen) construct(idx []int, depth int, path []rules.Predicate) {
	if depth >= g.cfg.MaxDepth || len(idx) < 2*g.cfg.MinLeaf {
		return
	}
	if g.ctx.Err() != nil {
		return
	}
	var cands []branch
	for c := range g.names {
		for _, w := range []float64{1, g.cfg.MatchWeight} {
			res := bestSplit(g.X, g.y, idx, c, w, g.cfg.MinLeaf, oneSidedGini(g.cfg.Lambda), g.buf)
			if res.ok {
				cands = append(cands, branch{col: c, weight: w, threshold: res.threshold, score: res.score})
			}
		}
	}
	if len(cands) == 0 {
		return
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score < cands[j].score
		}
		if cands[i].col != cands[j].col {
			return cands[i].col < cands[j].col
		}
		return cands[i].weight < cands[j].weight
	})
	limit := len(cands)
	if g.cfg.BranchFactor > 0 && g.cfg.BranchFactor < limit {
		limit = g.cfg.BranchFactor
	}

	for _, b := range cands[:limit] {
		var li, ri []int
		for _, i := range idx {
			if g.X[i][b.col] <= b.threshold {
				li = append(li, i)
			} else {
				ri = append(ri, i)
			}
		}
		lp := rules.Predicate{Metric: b.col, Name: g.names[b.col], Op: rules.LE, Threshold: b.threshold}
		rp := rules.Predicate{Metric: b.col, Name: g.names[b.col], Op: rules.GT, Threshold: b.threshold}

		// Rule qualification is unweighted, per the paper: matching rules
		// are generated under class weighting but filtered without it.
		lCounts := rawCounts(g.y, li)
		rCounts := rawCounts(g.y, ri)
		lPure := lCounts.gini() <= g.cfg.Impurity && lCounts.n >= g.cfg.MinLeaf
		rPure := rCounts.gini() <= g.cfg.Impurity && rCounts.n >= g.cfg.MinLeaf

		if lPure {
			g.emit(append(path, lp), lCounts)
		}
		if rPure {
			g.emit(append(path, rp), rCounts)
		}

		// Recurse into the impurer side (Algorithm 1 lines 18-21); if both
		// are pure or neither side qualifies for further splitting the
		// branch ends here.
		switch {
		case lPure && rPure:
			// both resolved
		case lCounts.gini() > rCounts.gini():
			g.construct(li, depth+1, append(path, lp))
		default:
			g.construct(ri, depth+1, append(path, rp))
		}
	}
}

func (g *onesidedGen) emit(path []rules.Predicate, counts giniCounts) {
	preds := make([]rules.Predicate, len(path))
	copy(preds, path)
	frac, match := purity(counts)
	g.out = append(g.out, rules.Rule{
		Predicates: preds,
		Match:      match,
		Support:    counts.n,
		Purity:     frac,
	})
}
