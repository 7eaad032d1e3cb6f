// Package classifier provides the machine ER classifier whose outputs
// LearnRisk analyzes. The paper uses DeepMatcher, a PyTorch deep-learning
// matcher; this package substitutes a feedforward network over
// per-attribute similarity summary vectors. Risk analysis only requires a
// black-box probabilistic classifier with realistic error patterns, which
// this provides, plus the bootstrap ensemble needed by the Uncertainty
// baseline.
package classifier

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/par"
)

// Config controls matcher training. Zero values get sensible defaults.
type Config struct {
	Hidden  []int   // hidden widths (default [16, 8])
	LR      float64 // learning rate (default 0.02)
	Epochs  int     // epochs (default 40)
	Batch   int     // minibatch (default 32)
	L2      float64 // weight decay (default 1e-4)
	Dropout float64
	// UseDifferenceMetrics also feeds the catalog's difference metrics to
	// the network. The default (false) mirrors the paper's setting: the
	// DNN classifier consumes textual similarity, while the difference
	// metrics are knowledge designed for risk analysis (Section 5.1) that
	// the classifier does not exploit — which is precisely why rule risk
	// features catch the classifier's confident mistakes.
	UseDifferenceMetrics bool
	Seed                 uint64
}

func (c Config) withDefaults() Config {
	if c.Hidden == nil {
		c.Hidden = []int{16, 8}
	}
	if c.LR == 0 {
		c.LR = 0.02
	}
	if c.Epochs == 0 {
		c.Epochs = 40
	}
	if c.Batch == 0 {
		c.Batch = 32
	}
	if c.L2 == 0 {
		c.L2 = 1e-4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// FeatureVector computes the similarity feature vector of pair i of the
// workload under the catalog: every metric value, with unbounded counting
// metrics squashed to [0,1] by x/(1+x) so the network sees a stable scale.
func FeatureVector(w *dataset.Workload, cat *metrics.Catalog, i int) []float64 {
	a, b := w.Values(i)
	raw := cat.Compute(a, b)
	for j, v := range raw {
		if v > 1 {
			raw[j] = v / (1 + v)
		}
	}
	return raw
}

// FeatureMatrix computes feature vectors for the given pair indices (rows
// in parallel, identical to the serial loop).
func FeatureMatrix(w *dataset.Workload, cat *metrics.Catalog, idx []int) [][]float64 {
	out := make([][]float64, len(idx))
	par.For(len(idx), func(k int) {
		out[k] = FeatureVector(w, cat, idx[k])
	})
	return out
}

// Matcher is the trained ER classifier: it labels pairs as matching when
// its output probability reaches 0.5. A trained Matcher is immutable and
// safe for concurrent use.
type Matcher struct {
	net      *nn.Network
	cat      *metrics.Catalog
	view     *metrics.Catalog // the metric subset the network consumes
	viewCols []int            // view metric positions within the full catalog
	useDiff  bool             // whether the view includes difference metrics
}

// similarityView returns a catalog restricted to similarity metrics
// (sharing the corpora) plus each kept metric's column index in the full
// catalog.
func similarityView(cat *metrics.Catalog) (*metrics.Catalog, []int) {
	view := &metrics.Catalog{Corpora: cat.Corpora}
	var cols []int
	for i, m := range cat.Metrics {
		if m.Kind == metrics.Similarity {
			view.Metrics = append(view.Metrics, m)
			cols = append(cols, i)
		}
	}
	return view, cols
}

func identityCols(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// newMatcher builds the untrained matcher shell for the catalog and config.
func newMatcher(cat *metrics.Catalog, cfg Config) (*Matcher, error) {
	m := &Matcher{cat: cat, useDiff: cfg.UseDifferenceMetrics}
	if cfg.UseDifferenceMetrics {
		m.view, m.viewCols = cat, identityCols(len(cat.Metrics))
	} else {
		m.view, m.viewCols = similarityView(cat)
	}
	if len(m.view.Metrics) == 0 {
		return nil, errors.New("classifier: catalog has no usable metrics")
	}
	return m, nil
}

// InputFromRow projects a full-catalog metric row onto the matcher's view
// and applies the [0,1] squash — the exact vector FeatureVector computes
// from raw values. The result is freshly allocated.
func (m *Matcher) InputFromRow(row []float64) []float64 {
	return m.InputFromRowInto(make([]float64, len(m.viewCols)), row)
}

// InputFromRowInto is InputFromRow into a caller-provided destination of
// length len(viewCols) — the allocation-free form the serving scratch uses.
//
//vetkit:hotpath
func (m *Matcher) InputFromRowInto(dst []float64, row []float64) []float64 {
	for j, c := range m.viewCols {
		v := row[c]
		if v > 1 {
			v = v / (1 + v)
		}
		dst[j] = v
	}
	return dst
}

// ProbScratch holds the reusable buffers of allocation-free classifier
// inference: the view-projected input vector and the network's activation
// buffers. One ProbScratch serves one goroutine at a time.
type ProbScratch struct {
	in  []float64
	fwd *nn.FwdScratch
}

// NewProbScratch sizes a scratch for this matcher. It requires a trained
// (or restored) matcher.
func (m *Matcher) NewProbScratch() *ProbScratch {
	return &ProbScratch{in: make([]float64, len(m.viewCols)), fwd: m.net.NewFwdScratch()}
}

// ProbRowScratch is ProbRow through a reusable scratch: zero heap
// allocations in steady state, bit-identical to ProbRow.
//
//vetkit:hotpath
func (m *Matcher) ProbRowScratch(row []float64, s *ProbScratch) float64 {
	return m.net.PredictScratch(m.InputFromRowInto(s.in, row), s.fwd)
}

// fit trains the matcher's network on prepared inputs. The positive class
// is reweighted by the negative:positive ratio (capped at 50) to counter
// ER's inherent imbalance. The context is checked between epochs; progress
// (optional) is invoked per completed epoch.
func (m *Matcher) fit(ctx context.Context, xs [][]float64, match []bool, cfg Config, progress func(done, total int)) error {
	ys := make([]float64, len(match))
	pos := 0
	for k, isMatch := range match {
		if isMatch {
			ys[k] = 1
			pos++
		}
	}
	if pos == 0 || pos == len(match) {
		return fmt.Errorf("classifier: training set has a single class (%d/%d positive)", pos, len(match))
	}
	posWeight := float64(len(match)-pos) / float64(pos)
	if posWeight > 50 {
		posWeight = 50
	}
	if posWeight < 1 {
		posWeight = 1
	}
	weights := make([]float64, len(ys))
	for k, y := range ys {
		if y == 1 {
			weights[k] = posWeight
		} else {
			weights[k] = 1
		}
	}
	net, err := nn.New(nn.Config{
		Inputs: len(m.view.Metrics), Hidden: cfg.Hidden, LR: cfg.LR,
		Epochs: cfg.Epochs, Batch: cfg.Batch, L2: cfg.L2,
		Dropout: cfg.Dropout, Adam: true, Seed: cfg.Seed,
	})
	if err != nil {
		return err
	}
	if err := net.FitCtx(ctx, xs, ys, weights, progress); err != nil {
		return err
	}
	m.net = net
	return nil
}

func matchFlags(w *dataset.Workload, idx []int) []bool {
	out := make([]bool, len(idx))
	for k, i := range idx {
		out[k] = w.Pairs[i].Match
	}
	return out
}

// Train fits a matcher on the workload's pairs at the given indices,
// computing the feature vectors directly.
func Train(w *dataset.Workload, cat *metrics.Catalog, trainIdx []int, cfg Config) (*Matcher, error) {
	cfg = cfg.withDefaults()
	if len(trainIdx) == 0 {
		return nil, errors.New("classifier: empty training set")
	}
	m, err := newMatcher(cat, cfg)
	if err != nil {
		return nil, err
	}
	xs := FeatureMatrix(w, m.view, trainIdx)
	if err := m.fit(context.Background(), xs, matchFlags(w, trainIdx), cfg, nil); err != nil {
		return nil, err
	}
	return m, nil
}

// TrainRows fits a matcher from precomputed full-catalog metric rows (one
// per trainIdx entry, as served by the feature store). It produces exactly
// the matcher Train would: the network inputs are the view projection of
// the rows, which is bit-identical to computing the view's metrics
// directly.
func TrainRows(w *dataset.Workload, cat *metrics.Catalog, trainIdx []int, rows [][]float64, cfg Config) (*Matcher, error) {
	return TrainRowsCtx(context.Background(), w, cat, trainIdx, rows, cfg, nil)
}

// TrainRowsCtx is TrainRows with cooperative cancellation and progress
// reporting. The context is checked between training epochs: cancellation
// aborts with ctx.Err(). progress (optional) receives (epochsDone,
// epochsTotal) after each epoch. With a background context and nil progress
// it is exactly TrainRows.
func TrainRowsCtx(ctx context.Context, w *dataset.Workload, cat *metrics.Catalog, trainIdx []int, rows [][]float64, cfg Config, progress func(done, total int)) (*Matcher, error) {
	if len(trainIdx) == 0 {
		return nil, errors.New("classifier: empty training set")
	}
	if len(rows) != len(trainIdx) {
		return nil, fmt.Errorf("classifier: %d rows for %d training indices", len(rows), len(trainIdx))
	}
	return TrainRowsFlagsCtx(ctx, cat, rows, matchFlags(w, trainIdx), cfg, progress)
}

// TrainRowsFlagsCtx is the core of TrainRowsCtx over bare ground-truth
// flags (match[k] for rows[k]) instead of a workload and index list — the
// entry point for the facade's batch pipeline, whose training rows arrive
// from a pair stream. With flags gathered from w.Pairs it is exactly
// TrainRowsCtx.
func TrainRowsFlagsCtx(ctx context.Context, cat *metrics.Catalog, rows [][]float64, match []bool, cfg Config, progress func(done, total int)) (*Matcher, error) {
	cfg = cfg.withDefaults()
	if len(rows) == 0 {
		return nil, errors.New("classifier: empty training set")
	}
	if len(rows) != len(match) {
		return nil, fmt.Errorf("classifier: %d rows for %d training flags", len(rows), len(match))
	}
	m, err := newMatcher(cat, cfg)
	if err != nil {
		return nil, err
	}
	xs := make([][]float64, len(rows))
	par.For(len(rows), func(k int) { xs[k] = m.InputFromRow(rows[k]) })
	if err := m.fit(ctx, xs, match, cfg, progress); err != nil {
		return nil, err
	}
	return m, nil
}

// MatcherSnapshot is the serializable state of a trained matcher: the
// network weights plus the metric-view selection. The catalog itself is not
// part of the snapshot — Restore re-binds the matcher to a caller-supplied
// catalog, whose schema must match the one the matcher was trained on
// (callers enforce that with a schema fingerprint).
type MatcherSnapshot struct {
	UseDifferenceMetrics bool        `json:"use_difference_metrics"`
	Net                  nn.Snapshot `json:"net"`
}

// Snapshot captures the trained matcher's state for persistence.
func (m *Matcher) Snapshot() MatcherSnapshot {
	return MatcherSnapshot{UseDifferenceMetrics: m.useDiff, Net: m.net.Snapshot()}
}

// RestoreMatcher rebuilds a matcher from a snapshot over the given catalog.
// The restored matcher labels bit-identically to the snapshotted one when
// the catalog is equivalent to the training catalog.
func RestoreMatcher(cat *metrics.Catalog, s MatcherSnapshot) (*Matcher, error) {
	m, err := newMatcher(cat, Config{UseDifferenceMetrics: s.UseDifferenceMetrics})
	if err != nil {
		return nil, err
	}
	if len(s.Net.Layers) == 0 {
		return nil, errors.New("classifier: snapshot has no trained network")
	}
	if got, want := s.Net.Inputs, len(m.view.Metrics); got != want {
		return nil, fmt.Errorf("classifier: snapshot expects %d input metrics, catalog view has %d", got, want)
	}
	net, err := nn.Restore(s.Net)
	if err != nil {
		return nil, err
	}
	m.net = net
	return m, nil
}

// Prob returns the matcher's equivalence probability for pair i.
func (m *Matcher) Prob(w *dataset.Workload, i int) float64 {
	return m.net.Predict(FeatureVector(w, m.view, i))
}

// ProbRow returns the equivalence probability from a precomputed
// full-catalog metric row.
func (m *Matcher) ProbRow(row []float64) float64 {
	return m.net.Predict(m.InputFromRow(row))
}

// Hidden returns the matcher's last hidden-layer representation for pair i
// (the embedding space used by the TrustScore baseline).
func (m *Matcher) Hidden(w *dataset.Workload, i int) []float64 {
	return m.net.Hidden(FeatureVector(w, m.view, i))
}

// HiddenRow returns the hidden representation from a precomputed
// full-catalog metric row.
func (m *Matcher) HiddenRow(row []float64) []float64 {
	return m.net.Hidden(m.InputFromRow(row))
}

// Catalog returns the metric catalog the matcher was trained with.
func (m *Matcher) Catalog() *metrics.Catalog { return m.cat }

// Labeled carries a machine labeling of a set of pairs: the classifier
// probabilities, the induced binary labels, and the ground truth — all that
// risk analysis needs (paper Definition 1).
type Labeled struct {
	Idx   []int     // workload pair indices
	Prob  []float64 // classifier outputs in [0,1]
	Label []bool    // machine labels: Prob >= 0.5
	Truth []bool    // ground-truth equivalence
}

// Label labels the pairs at the given workload indices.
func (m *Matcher) Label(w *dataset.Workload, idx []int) Labeled {
	l := Labeled{
		Idx:   append([]int(nil), idx...),
		Prob:  make([]float64, len(idx)),
		Label: make([]bool, len(idx)),
		Truth: make([]bool, len(idx)),
	}
	for k, i := range idx {
		p := m.Prob(w, i)
		l.Prob[k] = p
		l.Label[k] = p >= 0.5
		l.Truth[k] = w.Pairs[i].Match
	}
	return l
}

// LabelRows labels the pairs at the given indices from precomputed
// full-catalog metric rows (one per index), in parallel. The result is
// identical to Label.
func (m *Matcher) LabelRows(w *dataset.Workload, idx []int, rows [][]float64) Labeled {
	truth := make([]bool, len(idx))
	for k, i := range idx {
		truth[k] = w.Pairs[i].Match
	}
	return m.LabelRowsTruth(idx, rows, truth)
}

// LabelRowsTruth is LabelRows over bare ground-truth flags (truth[k] for
// idx[k]/rows[k]) instead of a workload — the facade batch pipeline's
// form, where flags came from one pass over the pair stream. With truth
// gathered from w.Pairs it is exactly LabelRows.
func (m *Matcher) LabelRowsTruth(idx []int, rows [][]float64, truth []bool) Labeled {
	l := Labeled{
		Idx:   append([]int(nil), idx...),
		Prob:  make([]float64, len(idx)),
		Label: make([]bool, len(idx)),
		Truth: append([]bool(nil), truth...),
	}
	par.For(len(idx), func(k int) {
		p := m.ProbRow(rows[k])
		l.Prob[k] = p
		l.Label[k] = p >= 0.5
	})
	return l
}

// Mislabeled reports whether position k is mislabeled (the positive class
// of risk analysis).
func (l Labeled) Mislabeled(k int) bool { return l.Label[k] != l.Truth[k] }

// MislabelCount returns the number of mislabeled positions.
func (l Labeled) MislabelCount() int {
	n := 0
	for k := range l.Idx {
		if l.Mislabeled(k) {
			n++
		}
	}
	return n
}

// F1 returns the matcher's F1 score on this labeling, the metric of the
// paper's Figure 14.
func (l Labeled) F1() float64 {
	var tp, fp, fn float64
	for k := range l.Idx {
		switch {
		case l.Label[k] && l.Truth[k]:
			tp++
		case l.Label[k] && !l.Truth[k]:
			fp++
		case !l.Label[k] && l.Truth[k]:
			fn++
		}
	}
	if tp == 0 {
		return 0
	}
	precision := tp / (tp + fp)
	recall := tp / (tp + fn)
	return 2 * precision * recall / (precision + recall)
}

// Accuracy returns the fraction of correctly labeled positions.
func (l Labeled) Accuracy() float64 {
	if len(l.Idx) == 0 {
		return 0
	}
	return 1 - float64(l.MislabelCount())/float64(len(l.Idx))
}

// Ensemble is a set of bootstrap-trained matchers, the machinery behind the
// Uncertainty baseline [40]: each member is trained on a bootstrap resample
// of the training set, and the equivalence probability of a pair is the
// fraction of members labeling it matching.
type Ensemble struct {
	members []*Matcher
}

// TrainEnsemble trains k bootstrap members. Members that fail to train
// (single-class resample) are retried with a fresh resample a bounded
// number of times; an error is returned if no member can be trained.
func TrainEnsemble(w *dataset.Workload, cat *metrics.Catalog, trainIdx []int, k int, cfg Config) (*Ensemble, error) {
	return trainEnsemble(w, cat, trainIdx, nil, k, cfg)
}

// TrainEnsembleRows is TrainEnsemble over precomputed full-catalog metric
// rows (one per trainIdx entry): every bootstrap resample reuses the rows
// instead of recomputing each member's feature matrix from scratch.
func TrainEnsembleRows(w *dataset.Workload, cat *metrics.Catalog, trainIdx []int, rows [][]float64, k int, cfg Config) (*Ensemble, error) {
	if len(rows) != len(trainIdx) {
		return nil, fmt.Errorf("classifier: %d rows for %d training indices", len(rows), len(trainIdx))
	}
	return trainEnsemble(w, cat, trainIdx, rows, k, cfg)
}

func trainEnsemble(w *dataset.Workload, cat *metrics.Catalog, trainIdx []int, rows [][]float64, k int, cfg Config) (*Ensemble, error) {
	cfg = cfg.withDefaults()
	if k <= 0 {
		k = 20
	}
	e := &Ensemble{}
	rng := newRNG(cfg.Seed)
	attempts := 0
	for len(e.members) < k && attempts < 4*k {
		attempts++
		resample := make([]int, len(trainIdx))
		var resampleRows [][]float64
		if rows != nil {
			resampleRows = make([][]float64, len(trainIdx))
		}
		for j := range resample {
			pick := rng.Intn(len(trainIdx))
			resample[j] = trainIdx[pick]
			if rows != nil {
				resampleRows[j] = rows[pick]
			}
		}
		memberCfg := cfg
		memberCfg.Seed = cfg.Seed + uint64(attempts)
		var m *Matcher
		var err error
		if rows != nil {
			m, err = TrainRows(w, cat, resample, resampleRows, memberCfg)
		} else {
			m, err = Train(w, cat, resample, memberCfg)
		}
		if err != nil {
			continue
		}
		e.members = append(e.members, m)
	}
	if len(e.members) == 0 {
		return nil, errors.New("classifier: could not train any ensemble member")
	}
	return e, nil
}

// Size returns the number of trained members.
func (e *Ensemble) Size() int { return len(e.members) }

// VoteProb returns the fraction of members labeling pair i matching —
// the Uncertainty baseline's equivalence probability estimate. With 20
// members this takes one of 21 distinct values, reproducing the paper's
// observation about Uncertainty's "highly regular ROC curves".
func (e *Ensemble) VoteProb(w *dataset.Workload, i int) float64 {
	votes := 0
	for _, m := range e.members {
		if m.Prob(w, i) >= 0.5 {
			votes++
		}
	}
	return float64(votes) / float64(len(e.members))
}

// VoteProbRow is VoteProb from a precomputed full-catalog metric row: the
// pair's features are computed once and every member scores the same row.
func (e *Ensemble) VoteProbRow(row []float64) float64 {
	votes := 0
	for _, m := range e.members {
		if m.ProbRow(row) >= 0.5 {
			votes++
		}
	}
	return float64(votes) / float64(len(e.members))
}

// newRNG is a tiny indirection so the ensemble owns its resampling stream.
func newRNG(seed uint64) *rngAdapter { return &rngAdapter{state: seed*2654435761 + 1} }

type rngAdapter struct{ state uint64 }

func (r *rngAdapter) Intn(n int) int {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int(z % uint64(n))
}

// Calibration bins classifier outputs into equal-width buckets and reports
// the empirical match rate per bucket. The risk model uses the bucket id to
// attach one learned RSD per output region (paper Section 6.2.1: "we split
// the pairs into multiple subsets, each of which contains similar
// classifier outputs").
type Calibration struct {
	Buckets int
}

// Bucket returns the bucket index of probability p under b.Buckets
// equal-width bins over [0,1].
func (c Calibration) Bucket(p float64) int {
	if c.Buckets <= 0 {
		return 0
	}
	b := int(p * float64(c.Buckets))
	if b >= c.Buckets {
		b = c.Buckets - 1
	}
	if b < 0 {
		b = 0
	}
	return b
}

// MatchRates returns the empirical match rate and count per bucket over the
// given labeling, with Laplace smoothing.
func (c Calibration) MatchRates(l Labeled) (rates []float64, counts []int) {
	n := c.Buckets
	if n <= 0 {
		n = 1
	}
	matches := make([]int, n)
	counts = make([]int, n)
	for k := range l.Idx {
		b := c.Bucket(l.Prob[k])
		counts[b]++
		if l.Truth[k] {
			matches[b]++
		}
	}
	rates = make([]float64, n)
	for b := range rates {
		rates[b] = (float64(matches[b]) + 1) / (float64(counts[b]) + 2)
	}
	return rates, counts
}

// Entropy returns the binary entropy of probability p in nats, used by the
// Entropy active-learning selector of Figure 14.
func Entropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log(p) - (1-p)*math.Log(1-p)
}
