package learnrisk

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"sort"

	"repro/internal/blocking"
	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dtree"
	"repro/internal/eval"
	"repro/internal/featstore"
	"repro/internal/par"
	"repro/internal/pipeline"
)

// candidateSeq returns the workload's candidate pairs as a lazy stream.
// With a materialized pair list the stream replays it; on a tables-only
// workload (LoadTablesCSV) pairs are produced by token blocking — the
// exact sequence blocking.Candidates materializes, emitted without ever
// holding the full list. Each range over the returned sequence replays the
// same pairs in the same order.
func (w *Workload) candidateSeq() iter.Seq[dataset.Pair] {
	if len(w.inner.Pairs) > 0 {
		return func(yield func(dataset.Pair) bool) {
			for _, p := range w.inner.Pairs {
				if !yield(p) {
					return
				}
			}
		}
	}
	return blocking.CandidateSeq(w.inner.Left, w.inner.Right, blocking.Config{})
}

// flagCheckInterval is how often the pass-A flag scan polls the context.
const flagCheckInterval = 8192

// streamEvalChunk is the per-worker granularity of the evaluation's window
// scoring.
const streamEvalChunk = 64

// Train runs the model-building half of the LearnRisk pipeline on the
// workload: split by ratio, train the classifier on the training part,
// generate risk features from it, and fit the risk model on the validation
// part. The result is a reusable artifact — evaluate it with Evaluate,
// serve it with Score/ScoreBatch, persist it with Save.
//
// Train reads the candidate pairs as a stream (candidateSeq) in two
// passes. Pass A keeps one ground-truth flag per pair, the minimum the
// stratified split needs. Pass B computes metric rows in bounded windows
// (featstore.Streamer) and copies out only the training and validation
// rows. Memory never holds the test rows, and on a tables-only workload
// never the candidate list either.
//
// The training stages are internal/pipeline's: rule generation runs on its
// own goroutine beside classifier training; both read the training rows and
// flags only. The context is checked during both passes and plumbed through
// classifier training, rule generation and risk-model fitting, each of
// which checks it between epochs (or tree nodes): a canceled context aborts
// Train with an error satisfying errors.Is(err, ctx.Err()). A classifier
// failure is reported ahead of any rule-generation failure. opts.Progress,
// when set, receives coarse progress per stage, always on the calling
// goroutine.
//
// Pair indices in the model's split (TrainPairs, TestPairs, ...) are
// stream positions: indices into the materialized pair list, or positions
// in the token-blocking sequence of a tables-only workload.
func Train(ctx context.Context, w *Workload, opts Options) (*Model, error) {
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}

	// Pass A: ground-truth flags only.
	var flags []bool
	for p := range w.candidateSeq() {
		if len(flags)%flagCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		flags = append(flags, p.Match)
	}
	split, err := dataset.SplitFlags(flags, opts.SplitRatio, opts.Seed)
	if err != nil {
		return nil, err
	}

	// Stream position -> (split part, slot within the part), so pass B can
	// scatter each window's rows to their split-order positions.
	part := make([]int8, len(flags))
	slot := make([]int32, len(flags))
	for k, i := range split.Train {
		part[i], slot[i] = 1, int32(k)
	}
	for k, i := range split.Valid {
		part[i], slot[i] = 2, int32(k)
	}

	// Pass B: metric rows of the train and valid parts, windowed. Only
	// these rows are copied out; test rows wait for the evaluation pass.
	width := len(w.cat.Metrics)
	trainX := make([][]float64, len(split.Train))
	validX := make([][]float64, len(split.Valid))
	st := featstore.NewStreamer(w.cat, w.inner.Left, w.inner.Right, 0)
	keep := func(i int) bool { return i < len(part) && part[i] != 0 }
	n, err := st.Run(w.candidateSeq(), keep, func(base int, pairs []dataset.Pair, rows [][]float64) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		for j, row := range rows {
			if row == nil {
				continue
			}
			i := base + j
			cp := make([]float64, width)
			copy(cp, row)
			if part[i] == 1 {
				trainX[slot[i]] = cp
			} else {
				validX[slot[i]] = cp
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if n != len(flags) {
		return nil, fmt.Errorf("learnrisk: candidate stream changed length between passes: %d then %d pairs", len(flags), n)
	}

	trainY := make([]bool, len(split.Train))
	for k, i := range split.Train {
		trainY[k] = flags[i]
	}

	// Risk features from the classifier training data (Section 5), then the
	// risk model trained on the validation part (Section 4.3).
	matcher, feats, err := pipeline.MatcherAndFeatures(ctx, w.cat, trainX, trainY, classifier.Config{
		Epochs: opts.ClassifierEpochs, Seed: opts.Seed,
	}, dtree.OneSidedConfig{MaxDepth: opts.RuleDepth}, opts.Progress)
	if err != nil {
		return nil, fmt.Errorf("learnrisk: %w", err)
	}
	validTruth := make([]bool, len(split.Valid))
	for k, i := range split.Valid {
		validTruth[k] = flags[i]
	}
	validLab := matcher.LabelRowsTruth(split.Valid, validX, validTruth)
	riskModel, err := pipeline.Fit(ctx, feats, validX, validLab, core.Config{
		Theta: opts.VaRConfidence, Epochs: opts.RiskEpochs, Seed: opts.Seed,
	}, opts.Progress)
	if err != nil {
		return nil, fmt.Errorf("learnrisk: %w", err)
	}

	attrs := schemaAttrs(w)
	// The artifact must not pin whatever the training-side Progress closure
	// captured; the callback belongs to the Train call, not the model.
	opts.Progress = nil
	return (&Model{
		attrs:   attrs,
		fp:      fingerprintOf(attrs, w.cat.Names()),
		opts:    opts,
		cat:     w.cat,
		matcher: matcher,
		feats:   feats.Rules,
		rset:    feats.Set,
		risk:    riskModel,
		split:   split,
	}).withResolveView(), nil
}

// Evaluate labels the given workload pairs with the model's classifier,
// risk-scores those labels, and returns the full Report — the same ranking,
// quality metrics and explanations Run produces for its test split. The
// workload must carry the model's schema (checked by fingerprint). Metric
// rows are computed under the model's training catalog, so a model
// evaluated on a second workload of the same schema sees it through the
// corpora it was trained with — exactly the serving semantics.
//
// idx selects stream positions (see Train); duplicates are allowed and
// each yields its own ranking row. The selected pairs' rows are computed
// in bounded windows and scored on the spot; nothing sized by the stream
// survives the call. On a tables-only workload an index past the end of
// the candidate stream is only detected once the stream ends.
func (m *Model) Evaluate(w *Workload, idx []int) (*Report, error) {
	if err := m.CompatibleWith(w); err != nil {
		return nil, err
	}
	if len(idx) == 0 {
		return nil, errors.New("learnrisk: Evaluate needs at least one pair index")
	}
	for _, i := range idx {
		if i < 0 || (len(w.inner.Pairs) > 0 && i >= w.Size()) {
			return nil, fmt.Errorf("learnrisk: pair index %d outside workload of %d pairs", i, w.Size())
		}
	}
	return m.evaluate(w, idx)
}

// evaluate scores the pairs at the given stream positions window by
// window: each kept row yields its classifier probability and fired-rule
// set on the spot (through the pooled scoring scratch), and only those
// per-pair results — never the rows — are retained for the report.
func (m *Model) evaluate(w *Workload, idx []int) (*Report, error) {
	slots := make(map[int][]int, len(idx))
	for k, i := range idx {
		slots[i] = append(slots[i], k)
	}
	probs := make([]float64, len(idx))
	truth := make([]bool, len(idx))
	fired := make([][]int, len(idx))
	delivered := 0

	st := featstore.NewStreamer(m.cat, w.inner.Left, w.inner.Right, 0)
	keep := func(i int) bool { return len(slots[i]) > 0 }
	_, err := st.Run(w.candidateSeq(), keep, func(base int, pairs []dataset.Pair, rows [][]float64) error {
		par.ForChunks(len(rows), streamEvalChunk, func(_, lo, hi int) {
			s := m.acquireScratch()
			for j := lo; j < hi; j++ {
				row := rows[j]
				if row == nil {
					continue
				}
				inst := m.instFromRow(row, s)
				var f []int
				if len(inst.Fired) > 0 {
					f = append([]int(nil), inst.Fired...)
				}
				for _, k := range slots[base+j] {
					probs[k] = inst.Prob
					truth[k] = pairs[j].Match
					fired[k] = f
				}
			}
			m.pool.Put(s)
		})
		for j, row := range rows {
			if row != nil {
				delivered += len(slots[base+j])
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if delivered != len(idx) {
		return nil, fmt.Errorf("learnrisk: %d of %d pair indices beyond the candidate stream's end", len(idx)-delivered, len(idx))
	}

	lab := classifier.Labeled{
		Idx:   append([]int(nil), idx...),
		Prob:  probs,
		Label: make([]bool, len(idx)),
		Truth: truth,
	}
	for k, p := range probs {
		lab.Label[k] = p >= 0.5
	}
	return m.assembleReport(lab, fired), nil
}

// coveredFraction is rules.RuleSet.Coverage over precomputed firing sets:
// the fraction of rows on which at least one rule fires, with the same
// zero-rows convention and the same integer-to-float division. The
// evaluation computes firings row by row and so never holds the metric
// rows Coverage would need.
func coveredFraction(fired [][]int) float64 {
	if len(fired) == 0 {
		return 0
	}
	covered := 0
	for _, f := range fired {
		if len(f) > 0 {
			covered++
		}
	}
	return float64(covered) / float64(len(fired))
}

// assembleReport builds the Report from a labeling and its firing sets:
// risk-scores every labeled pair and ranks them by descending risk.
func (m *Model) assembleReport(testLab classifier.Labeled, fired [][]int) *Report {
	testInsts, testBad := core.BuildInstances(fired, testLab)
	risks := m.risk.RiskAll(testInsts)

	rep := &Report{
		AUROC:              eval.AUROC(risks, testBad),
		ClassifierF1:       testLab.F1(),
		ClassifierAccuracy: testLab.Accuracy(),
		Mislabels:          testLab.MislabelCount(),
		NumFeatures:        len(m.feats),
		RuleCoverage:       coveredFraction(fired),
		model:              m.risk,
		features:           m.feats,
		artifact:           m,
		insts:              make(map[int]core.Instance, len(testInsts)),
	}
	for k := range testInsts {
		rep.insts[testLab.Idx[k]] = testInsts[k]
		rep.Ranking = append(rep.Ranking, RankedPair{
			PairIndex:  testLab.Idx[k],
			Risk:       risks[k],
			Prob:       testLab.Prob[k],
			Match:      testLab.Label[k],
			Mislabeled: testBad[k],
		})
	}
	sort.SliceStable(rep.Ranking, func(a, b int) bool {
		return rep.Ranking[a].Risk > rep.Ranking[b].Risk
	})
	return rep
}
