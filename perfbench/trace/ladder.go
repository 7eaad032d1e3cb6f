package trace

import (
	"fmt"
	"math"
	"slices"
	"time"

	learnrisk "repro"
	"repro/internal/core"
	"repro/internal/featstore"
)

// Score-ladder metric names: the mean time per pair of each layer beneath
// Model.Score, of Score itself, and of what the layers do not account for.
const (
	LadderRow          = "featstore.row_us"
	LadderForward      = "classifier.forward_us"
	LadderFire         = "rules.fire_us"
	LadderAssess       = "core.assess_us"
	LadderScore        = "learnrisk.score_us"
	LadderUnattributed = "learnrisk.score_unattributed_us"
)

// ladderReps is how many times each layer's loop runs; the median is kept.
const ladderReps = 5

// Ladder times each layer of the score path on the given pairs through the
// composition's trained layers, then the facade model's Score on the same
// pairs, and checks that the composed verdicts equal Score's bit for bit.
func Ladder(m *Model, fm *learnrisk.Model, pairs []learnrisk.Pair) (map[string]float64, error) {
	if len(pairs) == 0 {
		return nil, fmt.Errorf("score ladder: no pairs")
	}
	n := len(pairs)
	rows := make([][]float64, n)
	probs := make([]float64, n)
	fired := make([][]int, n)
	assessed := make([]core.Assessment, n)
	fs := featstore.NewServeScratch(m.cat)
	ps := m.matcher.NewProbScratch()
	rs := m.rset.NewRowScratch()

	perPair := func(body func()) float64 {
		var ts []float64
		for r := 0; r < ladderReps; r++ {
			t0 := time.Now()
			body()
			ts = append(ts, float64(time.Since(t0))/float64(time.Microsecond)/float64(n))
		}
		return medianOf(ts)
	}
	out := map[string]float64{}
	out[LadderRow] = perPair(func() {
		for i, p := range pairs {
			rows[i] = featstore.ComputeRowAppend(m.cat, rows[i][:0], p.Left, p.Right, fs)
		}
	})
	out[LadderForward] = perPair(func() {
		for i := range rows {
			probs[i] = m.matcher.ProbRowScratch(rows[i], ps)
		}
	})
	out[LadderFire] = perPair(func() {
		for i := range rows {
			m.rset.ApplyRowBitset(rows[i], rs)
			fired[i] = rs.AppendFired(fired[i][:0])
		}
	})
	out[LadderAssess] = perPair(func() {
		for i := range rows {
			assessed[i] = m.risk.Assess(core.Instance{Fired: fired[i], Prob: probs[i], Label: probs[i] >= 0.5})
		}
	})
	var scoreErr error
	scores := make([]learnrisk.PairScore, n)
	out[LadderScore] = perPair(func() {
		for i, p := range pairs {
			if scores[i], scoreErr = fm.Score(p); scoreErr != nil {
				return
			}
		}
	})
	if scoreErr != nil {
		return nil, scoreErr
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i, s := range scores {
		a := assessed[i]
		if !same(s.Prob, probs[i]) || !same(s.Risk, a.Risk) || !same(s.Mu, a.Mu) || !same(s.Sigma, a.Sigma) {
			return nil, fmt.Errorf("score ladder: pair %d composes to prob %v risk %v, Score gives %v %v", i, probs[i], a.Risk, s.Prob, s.Risk)
		}
	}
	out[LadderUnattributed] = out[LadderScore] - out[LadderRow] - out[LadderForward] - out[LadderFire] - out[LadderAssess]
	return out, nil
}

func medianOf(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
