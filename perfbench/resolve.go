package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	learnrisk "repro"
	"repro/perfbench/trace"
)

// resolve-ingest: cmd/serve on 4 durable partitions (fsync always, a
// snapshot every 50 logged operations per partition), warm-loaded with
// 1,000 live AB records; 80% POST /v1/resolve (k=5), 10% POST /v1/records,
// 10% DELETE of the oldest live record, so the working set stays at 1,000.
const (
	poolScale   = 0.1 // AB scale of the record pool (about 5,300 records)
	warmRecords = 1000
	resolveK    = 5
)

type resolveTraffic struct {
	seed uint64
	pool [][]string // record values; the first warmRecords are warm-loaded

	mu      sync.Mutex
	phase   int
	on      bool
	live    []uint64            // live record IDs, oldest first
	vals    map[uint64][]string // values of every record ever added
	deleted map[uint64]bool     // records a delete was sent for
	nextAdd int                 // pool index of the next added record
	ops     []trace.Op          // completed operations, in completion order
	seen    []resolved          // responses of checked phases
}

type resolved struct {
	probe []string
	resp  resolveResponse
}

type resolveResponse struct {
	Matches []struct {
		ID     uint64   `json:"id"`
		Values []string `json:"values"`
		Prob   float64  `json:"prob"`
		Match  bool     `json:"match"`
		Risk   float64  `json:"risk"`
		Mu     float64  `json:"mu"`
		Sigma  float64  `json:"sigma"`
	} `json:"matches"`
	ModelFingerprint string `json:"model_fingerprint"`
}

func (t *resolveTraffic) rate() float64        { return 100 }
func (t *resolveTraffic) limited() []int       { return []int{kindResolve, kindIngest} }
func (t *resolveTraffic) limit() time.Duration { return 100 * time.Millisecond }
func (t *resolveTraffic) primary() int         { return kindResolve }

func (t *resolveTraffic) beginPhase(check bool) {
	t.mu.Lock()
	t.on = check
	t.phase++
	t.mu.Unlock()
}

// prepare draws the record pool from a seed of its own, so probes and
// records are not the pairs the model was trained on, and writes the
// warm-load CSV. The server's store assigns IDs 0, 1, ... in file order.
func (t *resolveTraffic) prepare(rc runCtx, art *artifact, dataDir string) ([]string, error) {
	w, err := learnrisk.Generate(artifactProfile, poolScale, rc.seed+1<<20)
	if err != nil {
		return nil, err
	}
	t.pool = t.pool[:0]
	for i := 0; i < w.NumRightRecords(); i++ {
		v, _ := w.RightRecordAt(i)
		t.pool = append(t.pool, v)
	}
	for i := 0; i < w.NumLeftRecords(); i++ {
		v, _ := w.LeftRecordAt(i)
		t.pool = append(t.pool, v)
	}
	for i := len(t.pool) - 1; i > 0; i-- {
		j := int(mix64(rc.seed, uint64(i)) % uint64(i+1))
		t.pool[i], t.pool[j] = t.pool[j], t.pool[i]
	}
	if len(t.pool) <= warmRecords {
		return nil, fmt.Errorf("record pool has %d records, want more than %d", len(t.pool), warmRecords)
	}
	records := filepath.Join(filepath.Dir(dataDir), "records.csv")
	names := w.AttrNames()
	if err := writeTableCSV(records, names, warmRecords, func(i int) ([]string, string) { return t.pool[i], "" }); err != nil {
		return nil, err
	}
	t.live = t.live[:0]
	t.vals, t.deleted = map[uint64][]string{}, map[uint64]bool{}
	for i := 0; i < warmRecords; i++ {
		t.live = append(t.live, uint64(i))
		t.vals[uint64(i)] = t.pool[i]
	}
	t.nextAdd, t.ops, t.seen = warmRecords, nil, nil
	return []string{"-partitions", "4", "-data-dir", dataDir, "-fsync", "always", "-snapshot-every", "50", "-records", records}, nil
}

func (t *resolveTraffic) op(ctx context.Context, c *client, i int) (int, error) {
	t.mu.Lock()
	phase, on := t.phase, t.on
	r := mix64(t.seed^uint64(phase)<<32, uint64(i))
	switch r % 10 {
	case 0:
		v := t.pool[warmRecords+(t.nextAdd-warmRecords)%(len(t.pool)-warmRecords)]
		t.nextAdd++
		t.mu.Unlock()
		var resp struct {
			ID uint64 `json:"id"`
		}
		if _, err := c.call(ctx, http.MethodPost, "/v1/records", map[string][]string{"values": v}, &resp); err != nil {
			return kindIngest, err
		}
		t.mu.Lock()
		t.live = append(t.live, resp.ID)
		t.vals[resp.ID] = v
		t.ops = append(t.ops, trace.Op{Kind: trace.OpAdd, ID: resp.ID, Values: v, Measured: on})
		t.mu.Unlock()
		return kindIngest, nil
	case 1:
		id := t.live[0]
		t.live = t.live[1:]
		t.deleted[id] = true
		t.mu.Unlock()
		var resp struct {
			Deleted bool `json:"deleted"`
		}
		if _, err := c.call(ctx, http.MethodDelete, "/v1/records/"+strconv.FormatUint(id, 10), nil, &resp); err != nil {
			return kindIngest, err
		}
		if !resp.Deleted {
			return kindIngest, fmt.Errorf("DELETE /v1/records/%d: not deleted", id)
		}
		t.mu.Lock()
		t.ops = append(t.ops, trace.Op{Kind: trace.OpDelete, ID: id, Measured: on})
		t.mu.Unlock()
		return kindIngest, nil
	}
	probe := t.pool[(r>>20)%uint64(len(t.pool))]
	t.mu.Unlock()
	var resp resolveResponse
	body := struct {
		Values []string `json:"values"`
		K      int      `json:"k"`
	}{probe, resolveK}
	if _, err := c.call(ctx, http.MethodPost, "/v1/resolve", body, &resp); err != nil {
		return kindResolve, err
	}
	t.mu.Lock()
	t.ops = append(t.ops, trace.Op{Kind: trace.OpResolve, Values: probe, K: resolveK, Measured: on})
	if on {
		t.seen = append(t.seen, resolved{probe, resp})
	}
	t.mu.Unlock()
	return kindResolve, nil
}

// check verifies every kept resolve response: at most k matches, ordered
// by Prob descending then ID ascending, each carrying the values the
// benchmark stored under its ID and the verdict the in-process Score gives
// the probe against them.
func (t *resolveTraffic) check(art *artifact, out *outcome) {
	fp := art.model.Fingerprint()
	for _, s := range t.seen {
		if p := t.problem(art, fp, s); p != "" {
			out.fail("resolve: %s", p)
		}
	}
	if len(t.seen) == 0 {
		out.fail("resolve: no responses were kept for checking")
	}
}

func (t *resolveTraffic) problem(art *artifact, fp string, s resolved) string {
	ms := s.resp.Matches
	if s.resp.ModelFingerprint != fp {
		return fmt.Sprintf("fingerprint %s, artifact %s", s.resp.ModelFingerprint, fp)
	}
	if len(ms) > resolveK {
		return fmt.Sprintf("%d matches for k=%d", len(ms), resolveK)
	}
	for j, m := range ms {
		if j > 0 && !(ms[j-1].Prob > m.Prob || (ms[j-1].Prob == m.Prob && ms[j-1].ID < m.ID)) {
			return fmt.Sprintf("matches %d and %d out of order (prob %v/%v, id %d/%d)", j-1, j, ms[j-1].Prob, m.Prob, ms[j-1].ID, m.ID)
		}
		// The server omits the values of a record deleted while the
		// resolve ran; its verdict still stands.
		stored, ok := t.vals[m.ID]
		if !ok || !(slices.Equal(stored, m.Values) || len(m.Values) == 0 && t.deleted[m.ID]) {
			return fmt.Sprintf("match id %d carries %q, the benchmark stored %q", m.ID, m.Values, stored)
		}
		want, err := art.model.Score(learnrisk.Pair{Left: s.probe, Right: stored})
		if err != nil {
			return err.Error()
		}
		got := learnrisk.PairScore{Prob: m.Prob, Match: m.Match, Risk: m.Risk, Mu: m.Mu, Sigma: m.Sigma}
		if p := verdictProblem(got, want); p != "" {
			return fmt.Sprintf("match id %d: %s", m.ID, p)
		}
	}
	return ""
}

func (t *resolveTraffic) ladderPairs(n int) []learnrisk.Pair {
	var ps []learnrisk.Pair
	for _, s := range t.seen {
		for _, m := range s.resp.Matches {
			if len(ps) == n {
				return ps
			}
			ps = append(ps, learnrisk.Pair{Left: s.probe, Right: t.vals[m.ID]})
		}
	}
	return ps
}

func (t *resolveTraffic) replay(rc runCtx, art *artifact, values map[string]float64) error {
	counts, err := trace.Replay(art.model, filepath.Join(rc.dir, "replay"), t.pool[:warmRecords], t.ops)
	if err != nil {
		return err
	}
	values["match.candidates_per_probe"] = counts.CandidatesPerProbe
	values["match.topk_yield"] = counts.TopKYield
	values["wal.bytes_per_write"] = counts.WALBytesPerWrite
	return nil
}
