package match

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/blocking"
	"repro/internal/dataset"
)

// The oracle property: after ANY interleaving of inserts and deletes, a
// probe against the incremental index must return exactly the candidate set
// a from-scratch batch blocking.Candidates rebuild over the surviving
// records produces. The batch path is the specification; the index is only
// an incremental evaluation of it.

// vocab mixes ordinary tokens, single-character tokens (filtered by the
// tokenizer), punctuation (normalized into separators) and mixed case
// (normalized to lower), so probes exercise the full normalization path.
var vocab = []string{
	"entity", "resolution", "matching", "record", "linkage", "risk",
	"Deep", "LEARNING", "graph", "x", "q7", "data-base", "O'Neil",
	"survey", "benchmark", "holoclean", "dblp", "scholar",
}

func randValues(rng *rand.Rand, arity int) []string {
	vals := make([]string, arity)
	for a := range vals {
		toks := make([]string, rng.Intn(5))
		for i := range toks {
			toks[i] = vocab[rng.Intn(len(vocab))]
		}
		vals[a] = strings.Join(toks, " ")
	}
	return vals
}

// batchOracle runs blocking.Candidates of the probe against the survivors
// (given in ascending-ID order) and maps the resulting pair indices back to
// store IDs.
func batchOracle(probe []string, ids []uint64, survivors [][]string, cfg Config, arity int) []uint64 {
	schema := &dataset.Schema{Attrs: make([]dataset.Attr, arity)}
	left := &dataset.Table{Schema: schema, Records: []dataset.Record{{ID: "probe", Values: probe}}}
	right := &dataset.Table{Schema: schema}
	for i, vals := range survivors {
		right.Records = append(right.Records, dataset.Record{ID: fmt.Sprint(ids[i]), Values: vals})
	}
	pairs := blocking.Candidates(left, right, blocking.Config{
		Attrs:           cfg.Attrs,
		MinSharedTokens: cfg.MinSharedTokens,
		MaxBlockSize:    cfg.MaxBlockSize,
	})
	out := []uint64{}
	for _, p := range pairs {
		out = append(out, ids[p.Right])
	}
	return out
}

func TestCandidatesMatchBatchOracleUnderInterleavings(t *testing.T) {
	const arity = 3
	configs := []Config{
		{},                   // defaults: min 1 shared token, max block 200
		{MinSharedTokens: 2}, // stricter sharing
		{MaxBlockSize: 3},    // aggressive stop-token pruning
		{MaxBlockSize: -1, CompactMinDead: 2, CompactFrac: 0.3}, // no pruning, eager compaction
		{Attrs: []int{0, 2}, CompactMinDead: 2},                 // blocking keys on a subset of attributes
	}
	for ci, cfg := range configs {
		for seed := int64(0); seed < 4; seed++ {
			t.Run(fmt.Sprintf("cfg%d/seed%d", ci, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*131 + int64(ci)))
				st := mustStore(t, arity, cfg)
				rcfg := st.Config()

				var ids []uint64
				var values [][]string // parallel to ids; survivors only
				var ps ProbeScratch

				check := func(probe []string) {
					t.Helper()
					cands, err := st.AppendCandidates(nil, probe, &ps, nil)
					if err != nil {
						t.Fatal(err)
					}
					got := candidateIDs(cands)
					want := batchOracle(probe, ids, values, rcfg, arity)
					if !slices.Equal(got, want) {
						t.Fatalf("probe %q diverged from batch rebuild:\n got %v\nwant %v\n(%d survivors, stats %+v)",
							probe, got, want, len(ids), st.Stats())
					}
					for _, c := range cands {
						i, _ := slices.BinarySearch(ids, c.ID)
						if !slices.Equal(c.Values, values[i]) {
							t.Fatalf("candidate %d carries %q, the survivor holds %q", c.ID, c.Values, values[i])
						}
					}
				}

				for op := 0; op < 300; op++ {
					switch r := rng.Float64(); {
					case r < 0.55 || len(ids) == 0:
						vals := randValues(rng, arity)
						id, err := st.Add(vals)
						if err != nil {
							t.Fatal(err)
						}
						ids = append(ids, id)
						values = append(values, vals)
					case r < 0.8:
						i := rng.Intn(len(ids))
						if !st.Delete(ids[i]) {
							t.Fatalf("Delete(%d) of a live record returned false", ids[i])
						}
						ids = slices.Delete(ids, i, i+1)
						values = slices.Delete(values, i, i+1)
					default:
						// Probe with fresh random values, or with a clone of
						// a surviving record (the self-match shape).
						probe := randValues(rng, arity)
						if len(values) > 0 && rng.Intn(2) == 0 {
							probe = slices.Clone(values[rng.Intn(len(values))])
						}
						check(probe)
					}
				}
				// Final sweep: probe several times after the interleaving,
				// then force a full compaction and probe again — results
				// must be identical before and after.
				probes := make([][]string, 0, 8)
				for i := 0; i < 8; i++ {
					probes = append(probes, randValues(rng, arity))
				}
				for _, p := range probes {
					check(p)
				}
				st.Compact()
				if tomb := st.Stats().Tombstones; tomb != 0 {
					t.Errorf("tombstones = %d after full Compact", tomb)
				}
				for _, p := range probes {
					check(p)
				}
			})
		}
	}
}
