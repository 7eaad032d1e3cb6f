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
	"runtime"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/par"
)

// Config controls matcher training. Zero values get the defaults.
type Config struct {
	Epochs int    // epochs (default 40)
	Seed   uint64 // weight initialization and minibatch order (default 1)
}

func (c Config) withDefaults() Config {
	if c.Epochs == 0 {
		c.Epochs = 40
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// The matcher network's fixed shape and optimizer settings: two ReLU
// hidden layers of 16 and 8 units, trained by Adam at this learning rate
// with this L2 weight decay.
const (
	hidden1, hidden2 = 16, 8
	learningRate     = 0.02
	weightDecay      = 1e-4
)

// Matcher is the trained ER classifier: a network over the catalog's
// similarity metrics that labels pairs as matching when its output
// probability reaches 0.5. The view mirrors the paper's setting: the DNN
// classifier consumes textual similarity, while the difference metrics are
// knowledge designed for risk analysis (Section 5.1) that the classifier
// does not exploit — which is precisely why rule risk features catch the
// classifier's confident mistakes. A trained Matcher is immutable and safe
// for concurrent use.
type Matcher struct {
	net      *nn.Network
	viewCols []int // positions within the full catalog of the similarity metrics the network consumes
}

// newMatcher builds the untrained matcher shell for the catalog: its view
// is the catalog's similarity metrics.
func newMatcher(cat *metrics.Catalog) (*Matcher, error) {
	m := &Matcher{}
	for i, mt := range cat.Metrics {
		if mt.Kind == metrics.Similarity {
			m.viewCols = append(m.viewCols, i)
		}
	}
	if len(m.viewCols) == 0 {
		return nil, errors.New("classifier: catalog has no usable metrics")
	}
	return m, nil
}

// InputFromRow projects a full-catalog metric row onto the matcher's view
// and squashes unbounded counting metrics to [0,1] by x/(1+x), so the
// network sees a stable scale. The result is freshly allocated.
func (m *Matcher) InputFromRow(row []float64) []float64 {
	return m.InputFromRowInto(make([]float64, len(m.viewCols)), row)
}

// InputFromRowInto is InputFromRow into a caller-provided destination of
// length len(viewCols) — the allocation-free form the serving scratch uses.
//
//vetkit:hotpath
func (m *Matcher) InputFromRowInto(dst []float64, row []float64) []float64 {
	for j, c := range m.viewCols {
		dst[j] = squash(row[c])
	}
	return dst
}

// squash maps an unbounded counting metric x > 1 to x/(1+x) and leaves
// [0,1] values as they are.
//
//vetkit:hotpath
func squash(v float64) float64 {
	if v > 1 {
		return v / (1 + v)
	}
	return v
}

// ViewCols returns the positions within the full catalog of the metrics
// the network consumes, in input order, as a fresh copy.
func (m *Matcher) ViewCols() []int { return append([]int(nil), m.viewCols...) }

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

// ProbViewScratch is ProbRowScratch over the view columns alone: view[j]
// holds the value of full-row column ViewCols()[j]. On equal column values
// it is bit-identical to ProbRowScratch.
//
//vetkit:hotpath
func (m *Matcher) ProbViewScratch(view []float64, s *ProbScratch) float64 {
	for j, v := range view {
		s.in[j] = squash(v)
	}
	return m.net.PredictScratch(s.in, s.fwd)
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
		Inputs: len(m.viewCols), Hidden: []int{hidden1, hidden2}, LR: learningRate,
		Epochs: cfg.Epochs, L2: weightDecay, Seed: cfg.Seed,
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

// TrainRowsCtx fits a matcher on the workload's pairs at trainIdx from
// their precomputed full-catalog metric rows (one per trainIdx entry, as
// served by the feature store); the network inputs are the rows' view
// projections. The context is checked between training epochs:
// cancellation aborts with ctx.Err(). progress (optional) receives
// (epochsDone, epochsTotal) after each epoch.
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
	m, err := newMatcher(cat)
	if err != nil {
		return nil, err
	}
	width := len(m.viewCols)
	flat := make([]float64, len(rows)*width)
	xs := make([][]float64, len(rows))
	par.For(len(rows), func(k int) {
		xs[k] = m.InputFromRowInto(flat[k*width:(k+1)*width:(k+1)*width], rows[k])
	})
	if err := m.fit(ctx, xs, match, cfg, progress); err != nil {
		return nil, err
	}
	return m, nil
}

// MatcherSnapshot is the serializable state of a trained matcher: the
// network weights. The catalog itself is not part of the snapshot —
// Restore re-binds the matcher to a caller-supplied catalog, whose schema
// must match the one the matcher was trained on (callers enforce that with
// a schema fingerprint).
type MatcherSnapshot struct {
	// UseDifferenceMetrics is always false: the view is the similarity
	// metrics. Snapshots keep the field so saved artifacts keep their
	// bytes, and RestoreMatcher refuses one that sets it.
	UseDifferenceMetrics bool        `json:"use_difference_metrics"`
	Net                  nn.Snapshot `json:"net"`
}

// Snapshot captures the trained matcher's state for persistence.
func (m *Matcher) Snapshot() MatcherSnapshot {
	return MatcherSnapshot{Net: m.net.Snapshot()}
}

// RestoreMatcher rebuilds a matcher from a snapshot over the given catalog.
// The restored matcher labels bit-identically to the snapshotted one when
// the catalog is equivalent to the training catalog.
func RestoreMatcher(cat *metrics.Catalog, s MatcherSnapshot) (*Matcher, error) {
	if s.UseDifferenceMetrics {
		return nil, errors.New("classifier: snapshot's network reads difference metrics; matchers read only similarity metrics")
	}
	m, err := newMatcher(cat)
	if err != nil {
		return nil, err
	}
	if len(s.Net.Layers) == 0 {
		return nil, errors.New("classifier: snapshot has no trained network")
	}
	if got, want := s.Net.Inputs, len(m.viewCols); got != want {
		return nil, fmt.Errorf("classifier: snapshot expects %d input metrics, catalog view has %d", got, want)
	}
	net, err := nn.Restore(s.Net)
	if err != nil {
		return nil, err
	}
	m.net = net
	return m, nil
}

// ProbRow returns the equivalence probability from a precomputed
// full-catalog metric row.
func (m *Matcher) ProbRow(row []float64) float64 {
	return m.net.Predict(m.InputFromRow(row))
}

// HiddenRow returns the matcher's last hidden-layer representation (the
// embedding space used by the TrustScore baseline) from a precomputed
// full-catalog metric row.
func (m *Matcher) HiddenRow(row []float64) []float64 {
	return m.net.Hidden(m.InputFromRow(row))
}

// Labeled carries a machine labeling of a set of pairs: the classifier
// probabilities, the induced binary labels, and the ground truth — all that
// risk analysis needs (paper Definition 1).
type Labeled struct {
	Idx   []int     // workload pair indices
	Prob  []float64 // classifier outputs in [0,1]
	Label []bool    // machine labels: Prob >= 0.5
	Truth []bool    // ground-truth equivalence
}

// LabelRows labels the pairs at the given workload indices from
// precomputed full-catalog metric rows (one per index), in parallel.
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
//
// The rows are split into one chunk per worker, and each chunk is labeled
// through one ProbScratch, so the allocations of a call do not grow with
// the number of rows.
func (m *Matcher) LabelRowsTruth(idx []int, rows [][]float64, truth []bool) Labeled {
	l := Labeled{
		Idx:   append([]int(nil), idx...),
		Prob:  make([]float64, len(idx)),
		Label: make([]bool, len(idx)),
		Truth: append([]bool(nil), truth...),
	}
	workers := runtime.GOMAXPROCS(0)
	par.ForChunks(len(idx), (len(idx)+workers-1)/workers, func(_, lo, hi int) {
		s := m.NewProbScratch()
		for k := lo; k < hi; k++ {
			p := m.ProbRowScratch(rows[k], s)
			l.Prob[k] = p
			l.Label[k] = p >= 0.5
		}
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

// TrainEnsembleRows trains k bootstrap members from precomputed
// full-catalog metric rows (one per trainIdx entry): every bootstrap
// resample reuses the rows. Members that fail to train (single-class
// resample) are retried with a fresh resample a bounded number of times;
// an error is returned if no member can be trained.
func TrainEnsembleRows(w *dataset.Workload, cat *metrics.Catalog, trainIdx []int, rows [][]float64, k int, cfg Config) (*Ensemble, error) {
	if len(rows) != len(trainIdx) {
		return nil, fmt.Errorf("classifier: %d rows for %d training indices", len(rows), len(trainIdx))
	}
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
		resampleRows := make([][]float64, len(trainIdx))
		for j := range resample {
			pick := rng.Intn(len(trainIdx))
			resample[j] = trainIdx[pick]
			resampleRows[j] = rows[pick]
		}
		memberCfg := cfg
		memberCfg.Seed = cfg.Seed + uint64(attempts)
		m, err := TrainRowsCtx(context.Background(), w, cat, resample, resampleRows, memberCfg, nil)
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

// VoteProbRow returns the fraction of members labeling the pair of a
// precomputed full-catalog metric row matching — the Uncertainty
// baseline's equivalence probability estimate. With 20 members this takes
// one of 21 distinct values, reproducing the paper's observation about
// Uncertainty's "highly regular ROC curves".
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

// Entropy returns the binary entropy of probability p in nats, used by the
// Entropy active-learning selector of Figure 14.
func Entropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log(p) - (1-p)*math.Log(1-p)
}
