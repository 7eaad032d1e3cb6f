package partition

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"

	"repro/internal/match"
	"repro/internal/metrics"
	"repro/internal/par"
)

// partDirName names a partition's data subdirectory inside the store's
// data dir.
func partDirName(i int) string { return fmt.Sprintf("part-%03d", i) }

var partDirRE = regexp.MustCompile(`^part-(\d{3})$`)

// partDirs lays the n partitions of a durable store out under dir, one
// rule for every n:
//
//   - A fresh dir gets one part-NNN subdirectory per partition.
//   - A dir that already holds part-NNN subdirectories must hold exactly
//     n. Records are routed by consistent-hashing their IDs, so a dir
//     created with N partitions opened as M would look every record up in
//     the wrong place: a count mismatch is refused, not repartitioned.
//   - A dir holding one match store's files at its root (the flat layout
//     match.OpenDurable writes) is a one-partition store and opens in
//     place. Opened with n > 1 it is refused, as is a dir holding both
//     layouts: either way the other layout's records would be orphaned.
func partDirs(dir string, n int) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("partition: inspecting data dir: %w", err)
	}
	parts, flat := 0, false
	for _, e := range entries {
		switch {
		case e.IsDir() && partDirRE.MatchString(e.Name()):
			parts++
		case !e.IsDir() && match.IsDurableFile(e.Name()):
			flat = true
		}
	}
	switch {
	case flat && parts > 0:
		return nil, fmt.Errorf("partition: data dir %s holds both the flat single-store layout (log segments and snapshots at its root) and %d part-NNN partitions; refusing to open either and orphan the other",
			dir, parts)
	case flat && n != 1:
		return nil, fmt.Errorf("partition: data dir %s holds the flat single-store layout (log segments and snapshots at its root), which opens only as 1 partition, not %d (repartition by rebuilding into a fresh dir)",
			dir, n)
	case flat:
		return []string{dir}, nil
	case parts > 0 && parts != n:
		return nil, fmt.Errorf("partition: data dir %s holds %d partitions but %d were requested; the partition count is fixed at creation (repartition by rebuilding into a fresh dir)",
			dir, parts, n)
	}
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(dir, partDirName(i))
	}
	return dirs, nil
}

// OpenDurable opens (creating if needed) a durable store rooted at dir:
// each partition persists into its own directory (WAL segments +
// snapshots, the match.OpenDurable layout; see partDirs), all partitions
// replay concurrently, and the global ID allocator resumes past the max
// replayed ID. Pruning reads the replayed partitions' own posting counts,
// so a restarted store prunes exactly like the one that shut down. needs
// is New's; every replayed record keeps its residue.
func OpenDurable(dir string, arity int, needs []metrics.Need, o Options) (*Store, error) {
	o = o.withDefaults()
	dirs, err := partDirs(dir, o.Partitions)
	if err != nil {
		return nil, err
	}

	// Replay all partitions concurrently: restart time is the slowest
	// partition's replay, not the sum (restart amortization is half the
	// point of partitioning the WAL).
	durs := make([]*match.DurableStore, o.Partitions)
	errs := make([]error, o.Partitions)
	par.ForWorkers(o.Partitions, o.Partitions, func(i int) {
		opts := o.Durable
		if o.Progress != nil {
			opts.Progress = func(phase string, done, total int) {
				o.Progress(i, phase, done, total)
			}
		}
		durs[i], errs[i] = match.OpenDurable(dirs[i], arity, needs, o.Match, opts)
	})
	if err := errors.Join(errs...); err != nil {
		for _, d := range durs {
			if d != nil {
				_ = d.Close() // best-effort: the open error is the one to report
			}
		}
		return nil, err
	}

	parts := make([]part, o.Partitions)
	var nextID uint64
	for i, d := range durs {
		parts[i] = part{st: d.Store, dur: d}
		if n := d.NextID(); n > nextID {
			nextID = n
		}
	}
	s := newStore(arity, parts)
	s.nextID.Store(nextID)
	return s, nil
}
