package trace

import (
	"fmt"

	learnrisk "repro"
	"repro/internal/wal"
)

// OpKind is a serving operation kind.
type OpKind int

const (
	OpResolve OpKind = iota
	OpAdd
	OpDelete
)

// Op is one completed serving operation, as the server applied it.
type Op struct {
	Kind     OpKind
	ID       uint64   // record added or deleted
	Values   []string // record added, or resolve probe
	K        int      // resolve depth
	Measured bool     // part of the traced phase
}

// ReplayCounts is the work the measured operations cost in the match and
// WAL layers.
type ReplayCounts struct {
	CandidatesPerProbe float64 // candidates generated per resolve
	TopKYield          float64 // matches returned per candidate scored
	WALBytesPerWrite   float64 // log bytes per add or delete
}

// Replay applies a serving run's operations, in completion order, to an
// in-process durable match store with the server's match configuration:
// initial holds the warm-loaded records under IDs 0, 1, ... The server's
// partitions exactly reproduce one flat store's candidate sets, so the
// flat store's counters give the candidates the server generated, which
// its /metrics does not export. The store logs without fsync; the bytes
// logged do not depend on the fsync policy.
func Replay(fm *learnrisk.Model, dir string, initial [][]string, ops []Op) (ReplayCounts, error) {
	var rc ReplayCounts
	d, err := fm.OpenDurableMatchStore(dir, learnrisk.MatchConfig{}, learnrisk.DurableMatchOptions{Sync: wal.SyncNever, SnapshotEvery: -1})
	if err != nil {
		return rc, err
	}
	for i, v := range initial {
		if err := d.AddAt(uint64(i), v); err != nil {
			d.Close()
			return rc, err
		}
	}
	var probes, results, writes int
	var cand0, bytes0 int64
	measuring := false
	for _, op := range ops {
		if op.Measured && !measuring {
			measuring = true
			cand0, bytes0 = d.Stats().Candidates, d.DurableStats().WALBytes
		}
		switch op.Kind {
		case OpAdd:
			err = d.AddAt(op.ID, op.Values)
		case OpDelete:
			_, err = d.Delete(op.ID)
		case OpResolve:
			var res []learnrisk.MatchResult
			res, err = fm.Resolve(d.Store, op.Values, op.K)
			if op.Measured {
				probes++
				results += len(res)
			}
		}
		if err != nil {
			d.Close()
			return rc, fmt.Errorf("replaying op %+v: %w", op, err)
		}
		if op.Measured && op.Kind != OpResolve {
			writes++
		}
	}
	cand := float64(d.Stats().Candidates - cand0)
	bytes := float64(d.DurableStats().WALBytes - bytes0)
	if err := d.Close(); err != nil {
		return rc, err
	}
	if probes > 0 {
		rc.CandidatesPerProbe = cand / float64(probes)
	}
	if cand > 0 {
		rc.TopKYield = float64(results) / cand
	}
	if writes > 0 {
		rc.WALBytesPerWrite = bytes / float64(writes)
	}
	return rc, nil
}
