package learnrisk

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"unicode/utf8"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/featstore"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/rules"
)

// Model is the trained LearnRisk artifact: the machine classifier, the
// generated risk features compiled for evaluation, the fitted risk model
// (learned weights, RSDs, influence function), and the schema fingerprint
// binding them to the workload shape they were trained on. A Model is built
// once by Train (or restored by Load) and then reused: Evaluate ranks a
// labeled split exactly as Run does, while Score/ScoreBatch risk-score
// fresh candidate pairs without ground truth and without retraining.
//
// A Model is immutable after Train/Load and safe for concurrent use — any
// number of goroutines may call Score, ScoreBatch, ExplainPair and Evaluate
// simultaneously. The only mutable state is the pool of scoring scratch
// buffers, which sync.Pool manages per goroutine.
type Model struct {
	attrs   []Attr // schema (name + type), the fingerprint's source of truth
	fp      string
	opts    Options
	cat     *metrics.Catalog // catalog with the training corpora
	matcher *classifier.Matcher
	feats   []rules.Rule
	rset    *rules.RuleSet
	risk    *core.Model

	split dataset.Split // train-time split; empty on a Loaded model

	// The resolve path's slice of the catalog (resolve.go,
	// withResolveView): needs names per attribute the forms the full
	// catalog reads, which every store the model builds keeps per record;
	// view is the catalog of the classifier's view columns and viewNeeds
	// the forms they read.
	needs     []metrics.Need
	view      *metrics.Catalog
	viewNeeds []metrics.Need

	// pool holds *scoreScratch instances sized for this model; see
	// acquireScratch. The zero value works for both Train- and
	// Load-constructed models.
	pool sync.Pool

	// resolvePool holds *resolveScratch instances — a scoreScratch wrapped
	// with candidate-generation and top-k state for the online resolve path
	// (resolve.go). Same ownership rules as pool.
	resolvePool sync.Pool
}

// scoreScratch is one scoring worker's reusable state: the serving metric
// row and its feature-store scratch (reusable prepared values + per-metric
// DP buffers), the classifier's input/activation buffers, and the
// rule-firing bitset with its decoded index form. Steady-state Score and
// ScoreBatch run entirely inside a pooled scoreScratch and perform zero
// heap allocations per pair.
type scoreScratch struct {
	row   []float64
	fs    *featstore.ServeScratch
	prob  *classifier.ProbScratch
	rules *rules.RowScratch
	fired []int
}

// acquireScratch takes a pooled scratch or builds a fresh one sized for
// the model. Pair it with m.pool.Put.
func (m *Model) acquireScratch() *scoreScratch {
	if s, ok := m.pool.Get().(*scoreScratch); ok {
		return s
	}
	return &scoreScratch{
		row:   make([]float64, 0, len(m.cat.Metrics)),
		fs:    featstore.NewServeScratch(m.cat),
		prob:  m.matcher.NewProbScratch(),
		rules: m.rset.NewRowScratch(),
		fired: make([]int, 0, m.rset.NumRules()),
	}
}

// Pair is one candidate record pair presented to the serving path as raw
// attribute values, in the schema order the model was trained on.
type Pair struct {
	Left  []string
	Right []string
}

// PairScore is the serving-path verdict on one candidate pair: the
// classifier's output and induced label, plus the risk analysis of that
// label (the fused equivalence distribution and its VaR mislabeling risk).
type PairScore struct {
	Prob  float64 // classifier equivalence probability
	Match bool    // machine label (Prob >= 0.5)
	Risk  float64 // VaR risk that the machine label is wrong
	Mu    float64 // expectation of the fused equivalence distribution
	Sigma float64 // standard deviation of the fused distribution
}

// schemaAttrs extracts the facade-level schema description of a workload.
func schemaAttrs(w *Workload) []Attr {
	attrs := make([]Attr, len(w.inner.Left.Schema.Attrs))
	for i, a := range w.inner.Left.Schema.Attrs {
		attrs[i] = Attr{Name: a.Name, Type: a.Type.String()}
	}
	return attrs
}

// fingerprintOf hashes the schema (attribute names and types) together with
// the metric catalog layout. Two workloads with the same fingerprint
// produce interchangeable metric rows; everything a Model consumes is
// defined over that row space.
func fingerprintOf(attrs []Attr, metricNames []string) string {
	h := sha256.New()
	for _, a := range attrs {
		io.WriteString(h, a.Name)
		h.Write([]byte{0})
		io.WriteString(h, a.Type)
		h.Write([]byte{1})
	}
	h.Write([]byte{2})
	for _, n := range metricNames {
		io.WriteString(h, n)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// buildCatalog reconstructs the metric catalog for a schema, leaving the
// corpora to be attached by the caller. The construction mirrors
// dataset.Schema.Catalog, so metric names, order and semantics are
// identical to a workload-built catalog.
func buildCatalog(attrs []Attr) (*metrics.Catalog, error) {
	cat := &metrics.Catalog{Corpora: make([]*metrics.Corpus, len(attrs))}
	for i, a := range attrs {
		t, err := parseAttrType(a.Type)
		if err != nil {
			return nil, err
		}
		cat.Metrics = append(cat.Metrics, metrics.ForAttribute(a.Name, i, t)...)
	}
	return cat, nil
}

// Fingerprint returns the schema fingerprint the model is bound to. Every
// workload whose schema hashes to the same fingerprint can be evaluated and
// served by this model.
func (m *Model) Fingerprint() string { return m.fp }

// Options returns the resolved options the model was trained with (zero
// fields replaced by defaults). For a Loaded model these are the original
// training options.
func (m *Model) Options() Options { return m.opts }

// Features renders the model's risk features, strongest support first.
func (m *Model) Features() []string {
	out := make([]string, len(m.feats))
	for i := range m.feats {
		out[i] = m.feats[i].String()
	}
	return out
}

// NumFeatures returns the number of rule risk features.
func (m *Model) NumFeatures() int { return len(m.feats) }

// TrainPairs, ValidPairs and TestPairs return the pair indices of the split
// computed at Train time, as fresh copies (mutating them cannot corrupt the
// model). They are nil on a model restored by Load — the split belongs to
// the training workload, not to the artifact.
func (m *Model) TrainPairs() []int { return append([]int(nil), m.split.Train...) }

// ValidPairs returns a copy of the validation-part pair indices of the
// train-time split (nil on a Loaded model).
func (m *Model) ValidPairs() []int { return append([]int(nil), m.split.Valid...) }

// TestPairs returns a copy of the test-part pair indices of the train-time
// split (nil on a Loaded model).
func (m *Model) TestPairs() []int { return append([]int(nil), m.split.Test...) }

// CompatibleWith reports whether the workload's schema fingerprint matches
// the model's, returning a descriptive error when it does not.
func (m *Model) CompatibleWith(w *Workload) error {
	got := fingerprintOf(schemaAttrs(w), w.cat.Names())
	if got != m.fp {
		return fmt.Errorf("learnrisk: workload %q schema fingerprint %s does not match the model's %s — the model was trained on a different schema",
			w.Name(), got[:12], m.fp[:12])
	}
	return nil
}

// ErrPairArity marks a serving-path pair whose value count does not match
// the model's schema. Serving layers classify it with errors.Is (a client
// error, not a server fault); every CheckPair failure wraps it.
var ErrPairArity = errors.New("pair does not match the model schema arity")

// CheckPair validates a serving-path pair against the model's schema
// arity, so a truncated or misaligned record fails loudly instead of being
// scored against empty-padded values. Serving front ends (internal/server)
// use it to reject a bad request before it joins a batch, keeping one
// malformed pair from failing the whole ScoreBatch call. Failures wrap
// ErrPairArity.
func (m *Model) CheckPair(p Pair) error {
	if len(p.Left) != len(m.attrs) || len(p.Right) != len(m.attrs) {
		return fmt.Errorf("learnrisk: pair has %d/%d attribute values, model schema has %d (%s...): %w",
			len(p.Left), len(p.Right), len(m.attrs), m.attrs[0].Name, ErrPairArity)
	}
	return nil
}

// Schema returns the attribute schema the model was trained on, as a fresh
// copy (mutating it cannot corrupt the model). Serving endpoints report it
// so clients know the order and arity of the values a Pair must carry.
func (m *Model) Schema() []Attr { return append([]Attr(nil), m.attrs...) }

// EnvelopeVersion returns the Save/Load envelope version this build reads
// and writes. Serving endpoints report it next to the fingerprint so an
// operator can tell which artifact generation a replica is running.
func (m *Model) EnvelopeVersion() int { return modelVersion }

// Score risk-scores one fresh candidate pair: the metric row is computed
// under the model's catalog (the metrics.Prepared fast path), the
// classifier labels it, the compiled rules fire on it, and the risk model
// assesses the label. The pair must carry one value per schema attribute.
// No ground truth is consulted and nothing is retrained. Safe for
// concurrent use.
//
// Steady state performs zero heap allocations: every buffer the pair's
// evaluation touches lives in a pooled scoreScratch.
func (m *Model) Score(p Pair) (PairScore, error) {
	if err := m.CheckPair(p); err != nil {
		return PairScore{}, err
	}
	s := m.acquireScratch()
	out := m.scorePair(p, s)
	m.pool.Put(s)
	return out, nil
}

// scoreBatchChunk is the shard granularity of ScoreBatch: small enough
// that a client batch of 64 pairs spreads across cores, large enough that
// the per-chunk scratch checkout and the one-pair side cache still
// amortize.
const scoreBatchChunk = 16

// ScoreBatch risk-scores a batch of fresh candidate pairs, sharding the
// batch across GOMAXPROCS workers (internal/par). Each worker scores its
// chunk through a pooled scoreScratch, so steady state allocates nothing
// per pair — only the result slice per call. Results are bit-identical to
// per-pair Score calls, in input order, at any GOMAXPROCS. Safe for
// concurrent use.
func (m *Model) ScoreBatch(pairs []Pair) ([]PairScore, error) {
	for i, p := range pairs {
		if err := m.CheckPair(p); err != nil {
			return nil, fmt.Errorf("pair %d: %w", i, err)
		}
	}
	out := make([]PairScore, len(pairs))
	par.ForChunks(len(pairs), scoreBatchChunk, func(_, lo, hi int) {
		s := m.acquireScratch()
		for i := lo; i < hi; i++ {
			out[i] = m.scorePair(pairs[i], s)
		}
		m.pool.Put(s)
	})
	return out, nil
}

// scorePair evaluates one (already arity-checked) pair inside a scratch.
//
//vetkit:hotpath
func (m *Model) scorePair(p Pair, s *scoreScratch) PairScore {
	s.row = featstore.ComputeRowAppend(m.cat, s.row[:0], p.Left, p.Right, s.fs)
	return m.scoreRow(s.row, s)
}

// scoreRow is the verdict on one full metric row: the classifier's label,
// and the risk assessment of that label from the rules the row fires.
// Score and Resolve's verdicts share it.
//
//vetkit:hotpath
func (m *Model) scoreRow(row []float64, s *scoreScratch) PairScore {
	inst := m.instFromRow(row, s)
	a := m.risk.Assess(inst)
	return PairScore{Prob: inst.Prob, Match: inst.Label, Risk: a.Risk, Mu: a.Mu, Sigma: a.Sigma}
}

// instFromRow is the one place a metric row becomes a risk-model instance:
// classifier output, induced machine label, fired rule set. Score,
// ScoreBatch, ExplainPair and Evaluate all share it, so labels and
// explanations can never disagree. The instance's Fired slice aliases the
// scratch and is valid until the scratch's next use.
//
//vetkit:hotpath
func (m *Model) instFromRow(row []float64, s *scoreScratch) core.Instance {
	prob := m.matcher.ProbRowScratch(row, s.prob)
	m.rset.ApplyRowBitset(row, s.rules)
	s.fired = s.rules.AppendFired(s.fired[:0])
	return core.Instance{
		Fired: s.fired,
		Prob:  prob,
		Label: prob >= 0.5,
	}
}

// ExplainPair returns the interpretable decomposition of a fresh pair's
// risk: each contributing risk feature with its weight share in the pair's
// portfolio, most influential first. Safe for concurrent use.
func (m *Model) ExplainPair(p Pair) ([]string, error) {
	if err := m.CheckPair(p); err != nil {
		return nil, err
	}
	s := m.acquireScratch()
	s.row = featstore.ComputeRowAppend(m.cat, s.row[:0], p.Left, p.Right, s.fs)
	inst := m.instFromRow(s.row, s)
	var out []string
	for _, c := range m.risk.Explain(inst) {
		out = append(out, fmt.Sprintf("share=%.2f mu=%.3f sigma=%.3f  %s",
			c.Share, c.Mu, c.Sigma, c.Description))
	}
	m.pool.Put(s)
	return out, nil
}

// modelVersion is the artifact envelope version. Bump it on any change to
// the envelope layout or to the semantics of its fields.
const modelVersion = 1

// modelEnvelope is the on-disk form of a Model: a versioned JSON envelope
// carrying the schema, its fingerprint, the training corpora, the matcher
// weights, the risk features, and the fitted risk model. Raw parameters are
// stored everywhere, so a round trip is bit-exact.
type modelEnvelope struct {
	Version     int                        `json:"version"`
	Fingerprint string                     `json:"fingerprint"`
	Attrs       []Attr                     `json:"attrs"`
	Options     Options                    `json:"options"`
	Corpora     []metrics.CorpusSnapshot   `json:"corpora"`
	Matcher     classifier.MatcherSnapshot `json:"matcher"`
	Rules       []rules.Rule               `json:"rules"`
	Risk        json.RawMessage            `json:"risk"`
}

// Save writes the model as a versioned JSON envelope. The artifact is
// self-contained: Load rebuilds a model that scores bit-identically
// anywhere, without the training workload.
func (m *Model) Save(w io.Writer) error {
	var riskBuf bytes.Buffer
	if err := m.risk.Save(&riskBuf); err != nil {
		return fmt.Errorf("learnrisk: saving risk model: %w", err)
	}
	env := modelEnvelope{
		Version:     modelVersion,
		Fingerprint: m.fp,
		Attrs:       m.attrs,
		Options:     m.opts,
		Corpora:     make([]metrics.CorpusSnapshot, len(m.cat.Corpora)),
		Matcher:     m.matcher.Snapshot(),
		Rules:       m.feats,
		Risk:        json.RawMessage(riskBuf.Bytes()),
	}
	for i, c := range m.cat.Corpora {
		snap := c.Snapshot()
		// JSON silently coerces invalid UTF-8 in map keys to U+FFFD, which
		// would break the bit-identical round trip without any error — so a
		// corpus holding non-UTF-8 tokens (e.g. from a Latin-1 CSV) refuses
		// to serialize instead of diverging after Load.
		for tok := range snap.DF {
			if !utf8.ValidString(tok) {
				return fmt.Errorf("learnrisk: attribute %q corpus holds a non-UTF-8 token (%q); re-encode the source data as UTF-8 before training a persistent model",
					m.attrs[i].Name, tok)
			}
		}
		env.Corpora[i] = snap
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(env)
}

// Load reads a model written by Save. The schema fingerprint stored in the
// envelope is recomputed from the envelope's own schema and must match —
// a mismatch means the artifact was corrupted or assembled against a
// different schema, and fails loudly. The loaded model scores
// bit-identically to the saved one.
func Load(r io.Reader) (*Model, error) {
	var env modelEnvelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("learnrisk: decoding model: %w", err)
	}
	if env.Version != modelVersion {
		return nil, fmt.Errorf("learnrisk: unsupported model version %d (this build reads version %d)", env.Version, modelVersion)
	}
	if len(env.Attrs) == 0 {
		return nil, errors.New("learnrisk: model envelope has no schema attributes")
	}
	cat, err := buildCatalog(env.Attrs)
	if err != nil {
		return nil, fmt.Errorf("learnrisk: rebuilding catalog: %w", err)
	}
	if len(env.Corpora) != len(cat.Corpora) {
		return nil, fmt.Errorf("learnrisk: model envelope has %d corpora for %d attributes", len(env.Corpora), len(cat.Corpora))
	}
	for i, s := range env.Corpora {
		cat.Corpora[i] = metrics.RestoreCorpus(s)
	}
	fp := fingerprintOf(env.Attrs, cat.Names())
	if fp != env.Fingerprint {
		return nil, fmt.Errorf("learnrisk: schema fingerprint mismatch: envelope claims %s but its schema hashes to %s — refusing to load",
			short(env.Fingerprint), short(fp))
	}
	matcher, err := classifier.RestoreMatcher(cat, env.Matcher)
	if err != nil {
		return nil, fmt.Errorf("learnrisk: restoring matcher: %w", err)
	}
	rset, err := rules.Compile(env.Rules, len(cat.Metrics))
	if err != nil {
		return nil, fmt.Errorf("learnrisk: recompiling rules: %w", err)
	}
	risk, err := core.Load(bytes.NewReader(env.Risk))
	if err != nil {
		return nil, fmt.Errorf("learnrisk: restoring risk model: %w", err)
	}
	return (&Model{
		attrs:   env.Attrs,
		fp:      fp,
		opts:    env.Options,
		cat:     cat,
		matcher: matcher,
		feats:   env.Rules,
		rset:    rset,
		risk:    risk,
	}).withResolveView(), nil
}

// LoadFile is Load over a file path: it opens the artifact, restores the
// model and closes the file. The hot-swap reload path of internal/server
// uses it; anything with an io.Reader in hand should call Load directly.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("learnrisk: opening model artifact: %w", err)
	}
	defer f.Close()
	return Load(f)
}

// short clips a fingerprint for error rendering.
func short(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	if fp == "" {
		return "(empty)"
	}
	return fp
}
