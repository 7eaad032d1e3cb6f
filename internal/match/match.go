// Package match is the online entity-resolution subsystem: a mutable
// record store that maintains an incremental inverted blocking index, so
// "here is a new record — who does it match?" is answered by a query-time
// posting-list probe instead of the batch rebuild blocking.Candidates
// performs (the paper's risk-analysis loop assumes such a
// candidate-generation front end; the batch path stays as the oracle the
// property tests pin this package against).
//
// The store assigns stable, monotonically increasing record IDs. Deletes
// tombstone the record's posting entries — the record leaves the ID map
// immediately, the posting entries linger with a per-posting dead count and
// are dropped by compaction once a posting is tombstone-heavy. Probes
// therefore never pay a rebuild: candidate generation for one record is a
// walk of the probe tokens' posting lists with a liveness filter, and its
// result is identical to running blocking.Candidates from scratch on the
// surviving records.
//
// Each record also keeps its metrics.Residue: the normalized forms, token
// order and numeric parses its values' metric forms are rebuilt from. The
// store derives it once, at add time (live adds, log replay and snapshot
// load all pass through one install path), under the per-attribute needs
// it was built with, and hands it out with the record's values, so a
// resolve ranks a candidate without normalizing, parsing or sorting its
// values again. The store does not score; it only keeps what the needs
// name, and a resolve checks that they are its model's (KeepsNeeds).
//
// One RWMutex per store guards the records and the postings together;
// parallelism comes from running several stores side by side
// (internal/partition), not from striping one store's locks.
package match

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/blocking"
	"repro/internal/metrics"
)

// ErrArity marks a record or probe whose value count does not match the
// store's schema arity. Serving layers classify it with errors.Is (a client
// error, not a server fault).
var ErrArity = errors.New("match: values do not match the store schema arity")

// Config controls the store's blocking semantics and maintenance. The
// blocking fields mirror blocking.Config exactly — a probe against the
// store and a batch Candidates rebuild under the same values must agree.
type Config struct {
	// Attrs are the attribute indices used as blocking keys. Empty means
	// all attributes.
	Attrs []int
	// MinSharedTokens is the number of blocking tokens a stored record must
	// share with the probe to become a candidate (default
	// blocking.DefaultMinSharedTokens).
	MinSharedTokens int
	// MaxBlockSize skips probe tokens whose posting list holds more than
	// this many live records (stop-token pruning; default
	// blocking.DefaultMaxBlockSize). A negative value disables pruning.
	MaxBlockSize int
	// CompactMinDead is the minimum tombstone count in one posting list
	// before compaction considers it (default 16).
	CompactMinDead int
	// CompactFrac is the tombstoned fraction of a posting list that
	// triggers its compaction (default 0.5).
	CompactFrac float64
}

func (c Config) withDefaults(arity int) Config {
	// The shared blocking fields resolve through blocking.Config.Normalize —
	// the single home of the clamp rules and the negative-sentinel
	// convention — so this mirror cannot drift from the batch path.
	b := blocking.Config{
		Attrs:           c.Attrs,
		MinSharedTokens: c.MinSharedTokens,
		MaxBlockSize:    c.MaxBlockSize,
	}.Normalize(arity)
	c.Attrs, c.MinSharedTokens, c.MaxBlockSize = b.Attrs, b.MinSharedTokens, b.MaxBlockSize
	if c.CompactMinDead <= 0 {
		c.CompactMinDead = 16
	}
	if c.CompactFrac <= 0 {
		c.CompactFrac = 0.5
	}
	return c
}

// Store is the mutable record store plus its incremental inverted blocking
// index. All methods are safe for concurrent use. One RWMutex guards the
// record map and the posting map together: Add, AddAt, Delete and Compact
// take it for writing, probes and reads take it for reading. It is the
// innermost lock: the store calls out under it only in Range, whose
// callback therefore must not call back into the store. Value slices are
// copied in at Add and never mutated afterwards, so Get and probes hand
// them out without copying, and a reader keeps a consistent record after
// it unlocks. The same holds for each record's residue.
type Store struct {
	cfg   Config
	arity int
	needs []metrics.Need // per-attribute forms each record's residue keeps; nil keeps none

	nextID atomic.Uint64

	mu    sync.RWMutex
	recs  map[uint64]record
	posts map[string]*posting
	// Maintenance counters, written under the write lock.
	adds, dels, tombstones, compactions int64

	probes     atomic.Int64
	candidates atomic.Int64

	addPool sync.Pool // *addScratch
}

// record is one live record: its values and the residue of their metric
// forms, both immutable once installed.
type record struct {
	vals []string
	res  metrics.Residue
}

// posting is one token's list of record IDs in insertion order. dead counts
// the tombstoned entries still present; live membership is len(ids)-dead.
// The struct is mutated in place under the store's write lock, so its
// pointer is a stable identity — the probe path uses that to deduplicate
// repeated probe tokens without allocating.
type posting struct {
	ids  []uint64
	dead int32
}

// addScratch is the reusable state of one Add/Delete call: the tokenizer,
// the record's deduplicated token set and the residue derivation buffers.
type addScratch struct {
	ts   blocking.TokenScratch
	toks []string
	seen map[string]struct{}
	rs   metrics.ResidueScratch
}

// New builds an empty store for records of the given arity. needs names,
// per attribute, the metric forms each record's residue keeps (a model's
// Catalog.AttrNeeds); nil keeps none, for a store that is never ranked on.
func New(arity int, needs []metrics.Need, cfg Config) (*Store, error) {
	if arity <= 0 {
		return nil, fmt.Errorf("match: store arity must be positive, got %d", arity)
	}
	if needs != nil && len(needs) != arity {
		return nil, fmt.Errorf("match: %d attribute needs for schema arity %d", len(needs), arity)
	}
	cfg.Attrs = slices.Clone(cfg.Attrs) // the caller may reuse its slice
	cfg = cfg.withDefaults(arity)
	for _, a := range cfg.Attrs {
		if a < 0 || a >= arity {
			return nil, fmt.Errorf("match: blocking attribute index %d outside schema arity %d", a, arity)
		}
	}
	s := &Store{
		cfg:   cfg,
		arity: arity,
		needs: slices.Clone(needs),
		recs:  make(map[uint64]record),
		posts: make(map[string]*posting),
	}
	s.addPool.New = func() any {
		return &addScratch{seen: make(map[string]struct{})}
	}
	return s, nil
}

// Arity returns the store's schema arity (values per record).
func (s *Store) Arity() int { return s.arity }

// KeepsNeeds reports whether each record's residue keeps exactly the
// forms needs names, so that rebuilding a record's metric forms under
// needs, or under a subset of them, reads what a fresh Reset would.
func (s *Store) KeepsNeeds(needs []metrics.Need) bool { return slices.Equal(s.needs, needs) }

// Config returns the resolved configuration (defaults filled in).
func (s *Store) Config() Config {
	cfg := s.cfg
	cfg.Attrs = slices.Clone(cfg.Attrs)
	return cfg
}

// distinctTokens fills a.toks with the record's deduplicated blocking
// tokens (interned strings — Add needs them as map keys anyway).
func (s *Store) distinctTokens(a *addScratch, values []string) {
	a.toks = a.toks[:0]
	n := a.ts.Tokenize(values, s.cfg.Attrs)
	for i := 0; i < n; i++ {
		tok := a.ts.Token(i)
		if _, dup := a.seen[string(tok)]; dup { // alloc-free lookup
			continue
		}
		t := string(tok)
		a.seen[t] = struct{}{}
		a.toks = append(a.toks, t)
	}
	clear(a.seen)
}

// AddAt stores a copy of the record's values under a caller-chosen stable
// ID and indexes its distinct blocking tokens, raising the internal ID
// allocator past it so later Add calls never collide. This is the
// partition layer's ingest path: a partitioned store assigns globally
// unique IDs itself (so tie-breaking ranks identically to one flat store)
// and routes each record to the partition the ID hashes to. The ID must
// not name a live record; of concurrent AddAt calls for one ID, exactly
// one succeeds.
func (s *Store) AddAt(id uint64, values []string) error {
	if err := s.addAt(id, values); err != nil {
		return err
	}
	s.advanceNextID(id + 1)
	return nil
}

// NextID reports the next record ID the store would assign. A partitioned
// store derives its global allocator from the max across its partitions
// after a durable replay.
func (s *Store) NextID() uint64 { return s.nextID.Load() }

// Range calls fn for every live record until it returns false. The values
// slice is the store's immutable copy (the Get contract). Records are
// visited in unspecified order under the store's read lock, held for the
// whole walk: fn must not call back into the store, or it deadlocks
// against a waiting writer.
func (s *Store) Range(fn func(id uint64, values []string) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for id, r := range s.recs {
		if !fn(id, r.vals) {
			return
		}
	}
}

// DistinctTokens calls fn for every distinct blocking token of values, in
// first-appearance order. The strings are freshly interned — fn may retain
// them. The partition layer tokenizes a probe through it once, so the
// tokens it sums live counts for (AddLiveCounts) are exactly the ones the
// partitions index. It takes no lock.
func (s *Store) DistinctTokens(values []string, fn func(tok string)) error {
	if len(values) != s.arity {
		return fmt.Errorf("match: record has %d values, store schema has %d: %w", len(values), s.arity, ErrArity)
	}
	a := s.addPool.Get().(*addScratch)
	s.distinctTokens(a, values)
	for _, t := range a.toks {
		fn(t)
	}
	s.addPool.Put(a)
	return nil
}

// AddLiveCounts adds to counts[i] the number of live records that hold
// toks[i] — the live block size stop-token pruning compares with
// MaxBlockSize — under one read lock. The partition layer sums it over
// the partitions to prune a probe's tokens as one flat store would.
//
//vetkit:hotpath
func (s *Store) AddLiveCounts(toks []string, counts []int) {
	s.mu.RLock()
	for i, t := range toks {
		if p := s.posts[t]; p != nil {
			counts[i] += len(p.ids) - int(p.dead)
		}
	}
	s.mu.RUnlock()
}

// Add stores a copy of the record's values under a fresh stable ID and
// indexes its distinct blocking tokens. The values must carry exactly one
// entry per schema attribute.
func (s *Store) Add(values []string) (uint64, error) {
	if len(values) != s.arity {
		return 0, fmt.Errorf("match: record has %d values, store schema has %d: %w", len(values), s.arity, ErrArity)
	}
	id := s.reserveID()
	if err := s.addAt(id, values); err != nil {
		return 0, err
	}
	return id, nil
}

// reserveID allocates the next stable record ID. IDs are never reused —
// the durable layer logs them, and a reused ID would make a replayed
// delete ambiguous.
func (s *Store) reserveID() uint64 { return s.nextID.Add(1) - 1 }

// advanceNextID raises the ID allocator to at least next, so records
// re-installed by replay never collide with IDs handed out afterwards.
func (s *Store) advanceNextID(next uint64) {
	for {
		cur := s.nextID.Load()
		if cur >= next || s.nextID.CompareAndSwap(cur, next) {
			return
		}
	}
}

// addAt installs a record under a caller-chosen ID: the write half of Add,
// and the replay path of the durable layer (which must restore the exact
// IDs the log recorded). It tokenizes and derives the residue outside the
// lock, then checks that the ID is not live and installs the record under
// one write lock.
func (s *Store) addAt(id uint64, values []string) error {
	if len(values) != s.arity {
		return fmt.Errorf("match: record has %d values, store schema has %d: %w", len(values), s.arity, ErrArity)
	}
	rec := record{vals: slices.Clone(values)}
	a := s.addPool.Get().(*addScratch)
	defer s.addPool.Put(a)
	s.distinctTokens(a, rec.vals)
	if s.needs != nil {
		rec.res = metrics.KeepResidue(rec.vals, s.needs, &a.rs)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.recs[id]; dup {
		return fmt.Errorf("match: AddAt(%d): a live record already holds that ID", id)
	}
	if s.tombstones > 0 && id < s.nextID.Load() {
		s.dropTombstonesOf(id)
	}
	s.recs[id] = rec
	for _, t := range a.toks {
		p := s.posts[t]
		if p == nil {
			p = &posting{}
			s.posts[t] = p
		}
		p.ids = append(p.ids, id)
	}
	s.adds++
	return nil
}

// Delete removes the record: it leaves the ID map immediately (Get and
// probes stop seeing it) and its posting entries become tombstones, dropped
// lazily when their posting list compacts. Returns false when the ID is
// unknown or already deleted.
func (s *Store) Delete(id uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.recs[id]
	if !ok {
		return false
	}
	delete(s.recs, id) // the residue goes with the record
	a := s.addPool.Get().(*addScratch)
	defer s.addPool.Put(a)
	s.distinctTokens(a, rec.vals)
	for _, t := range a.toks {
		// A live record's ID is in every one of its tokens' postings:
		// compaction keeps live IDs, and both run under the write lock.
		p := s.posts[t]
		p.dead++
		s.tombstones++
		if int(p.dead) >= s.cfg.CompactMinDead && float64(p.dead) >= s.cfg.CompactFrac*float64(len(p.ids)) {
			s.compactPosting(t, p)
		}
	}
	s.dels++
	return true
}

// compactPosting rewrites one posting list in place, dropping entries whose
// record is gone. Caller holds the write lock, so the dropped entries are
// exactly the p.dead tombstones.
func (s *Store) compactPosting(tok string, p *posting) {
	p.ids = slices.DeleteFunc(p.ids, func(id uint64) bool {
		_, live := s.recs[id]
		return !live
	})
	s.tombstones -= int64(p.dead)
	p.dead = 0
	if len(p.ids) == 0 {
		delete(s.posts, tok)
	}
	s.compactions++
}

// dropTombstonesOf compacts every posting that still holds id as a
// tombstone of a deleted record, so that id can be installed again: a new
// entry beside the tombstone would count the record twice for that token,
// and a tombstone in a posting of a token the new values lack would count
// it for a token it does not have. Caller holds the write lock. addAt
// calls it for an ID below the allocator while tombstones exist: a reused
// ID, which Add, replay and the partition layer never produce, or a fresh
// ID installed out of order by concurrent partition adds, for which the
// sweep finds nothing.
func (s *Store) dropTombstonesOf(id uint64) {
	for tok, p := range s.posts {
		if p.dead > 0 && slices.Contains(p.ids, id) {
			s.compactPosting(tok, p)
		}
	}
}

// Compact sweeps every posting list, dropping all tombstones now. Normal
// operation does not need it — Delete compacts tombstone-heavy postings as
// it goes — but an operator can reclaim space after a bulk delete.
func (s *Store) Compact() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for tok, p := range s.posts {
		if p.dead > 0 {
			s.compactPosting(tok, p)
		}
	}
}

// Get returns the record's values. The returned slice is the store's own
// copy, immutable by contract — callers must not modify it.
func (s *Store) Get(id uint64) ([]string, bool) {
	s.mu.RLock()
	r, ok := s.recs[id]
	s.mu.RUnlock()
	return r.vals, ok
}

// Len returns the number of live records.
func (s *Store) Len() int {
	s.mu.RLock()
	n := len(s.recs)
	s.mu.RUnlock()
	return n
}

// ProbeScratch is one prober's reusable state: the tokenizer, the distinct
// postings touched (deduplicated by pointer identity — each token owns one
// posting, so repeated probe tokens hit the same pointer), and the gathered
// candidate IDs. Owned by one goroutine at a time; the facade pools them.
type ProbeScratch struct {
	ts    blocking.TokenScratch
	posts []*posting
	ids   []uint64
}

// Candidate is one record a probe reached: its ID, its values (the
// store's immutable copy, the Get contract) and the residue of their
// metric forms.
type Candidate struct {
	ID      uint64
	Values  []string
	Residue metrics.Residue
}

// AppendCandidates appends the live records that share at least
// MinSharedTokens blocking tokens with the probe values, in ascending ID
// order, and returns the extended slice. Probe tokens found in skip
// (sorted ascending; nil for none) contribute no candidates, exactly as if
// stop-token pruning had dropped them: this is the partitioned store's
// scatter path — a partition's posting list holds only its share of a
// token's records, so the partition layer decides pruning from the live
// counts summed over all partitions and passes the verdict down here.
//
// The probe tokenizes outside the lock and gathers the IDs and their value
// slices under one read lock, so the candidates are one consistent
// snapshot of the store. The result is exactly what a batch
// blocking.Candidates run of the probe against the surviving records would
// pair it with (the oracle property test pins this). Steady state performs
// no heap allocations beyond dst growth.
//
//vetkit:hotpath
func (s *Store) AppendCandidates(dst []Candidate, values []string, ps *ProbeScratch, skip []string) ([]Candidate, error) {
	if len(values) != s.arity {
		return dst, fmt.Errorf("match: probe has %d values, store schema has %d: %w", len(values), s.arity, ErrArity) //vetkit:allow hotpath cold schema-mismatch branch
	}
	ps.posts = ps.posts[:0]
	ps.ids = ps.ids[:0]
	n := ps.ts.Tokenize(values, s.cfg.Attrs)
	base := len(dst)
	s.mu.RLock()
	for i := 0; i < n; i++ {
		tok := ps.ts.Token(i)
		if skipHas(skip, tok) {
			continue // globally pruned stop token
		}
		p := s.posts[string(tok)] // alloc-free lookup
		if p == nil || slices.Contains(ps.posts, p) {
			continue // token absent, or distinct-token semantics within the probe
		}
		ps.posts = append(ps.posts, p)
		if s.cfg.MaxBlockSize > 0 && len(p.ids)-int(p.dead) > s.cfg.MaxBlockSize {
			continue // stop-token pruning on the live block size
		}
		ps.ids = append(ps.ids, p.ids...)
	}
	// Shared-token counts by run length: postings never repeat an ID, so
	// after sorting, one record's occurrences are contiguous and count the
	// distinct probe tokens it shares.
	slices.Sort(ps.ids)
	for i := 0; i < len(ps.ids); {
		j := i + 1
		for j < len(ps.ids) && ps.ids[j] == ps.ids[i] {
			j++
		}
		if j-i >= s.cfg.MinSharedTokens {
			if r, live := s.recs[ps.ids[i]]; live {
				dst = append(dst, Candidate{ID: ps.ids[i], Values: r.vals, Residue: r.res})
			}
		}
		i = j
	}
	s.mu.RUnlock()
	s.probes.Add(1)
	s.candidates.Add(int64(len(dst) - base))
	return dst, nil
}

// skipHas reports whether tok is in the sorted skip list (binary search,
// no []byte->string conversion on the probe path).
//
//vetkit:hotpath
func skipHas(skip []string, tok []byte) bool {
	lo, hi := 0, len(skip)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cmpStringBytes(skip[mid], tok) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(skip) && cmpStringBytes(skip[lo], tok) == 0
}

// cmpStringBytes is bytes.Compare across the string/[]byte divide, so the
// probe path never materializes a token string.
//
//vetkit:hotpath
func cmpStringBytes(s string, b []byte) int {
	n := min(len(s), len(b))
	for i := 0; i < n; i++ {
		if s[i] != b[i] {
			if s[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(s) < len(b):
		return -1
	case len(s) > len(b):
		return 1
	}
	return 0
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Live        int   // live records
	Added       int64 // records ever added
	Deleted     int64 // records ever deleted
	Tokens      int   // distinct tokens currently indexed
	Tombstones  int64 // tombstoned posting entries awaiting compaction
	Compactions int64 // posting-list compactions performed
	Probes      int64 // candidate-generation probes served
	Candidates  int64 // candidates returned across all probes
}

// Stats snapshots the counters (under one read lock).
func (s *Store) Stats() Stats {
	s.mu.RLock()
	st := Stats{
		Live:        len(s.recs),
		Added:       s.adds,
		Deleted:     s.dels,
		Tokens:      len(s.posts),
		Tombstones:  s.tombstones,
		Compactions: s.compactions,
	}
	s.mu.RUnlock()
	st.Probes = s.probes.Load()
	st.Candidates = s.candidates.Load()
	return st
}
