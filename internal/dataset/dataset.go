// Package dataset defines the entity-resolution domain model used across
// the repository: records, tables, candidate pairs and workloads, plus the
// train/validation/test splitting the paper's experiments rely on
// (Section 7.1) and CSV interchange for real benchmark files.
package dataset

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/metrics"
	"repro/internal/stats"
)

// Attr describes one attribute of a schema: its name and value type, which
// drives basic-metric selection (paper Figure 5).
type Attr struct {
	Name string
	Type metrics.AttrType
}

// Schema is an ordered list of attributes shared by the two tables of an ER
// workload.
type Schema struct {
	Name  string
	Attrs []Attr
}

// AttrNames returns the attribute names in order.
func (s *Schema) AttrNames() []string {
	names := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		names[i] = a.Name
	}
	return names
}

// Catalog builds the basic-metric catalog for this schema, computing one
// token corpus per attribute from the values present in the given tables.
// The catalog realizes the paper's per-dataset basic metric sets.
func (s *Schema) Catalog(tables ...*Table) *metrics.Catalog {
	cat := &metrics.Catalog{Corpora: make([]*metrics.Corpus, len(s.Attrs))}
	for i, a := range s.Attrs {
		cat.Metrics = append(cat.Metrics, metrics.ForAttribute(a.Name, i, a.Type)...)
		var values []string
		for _, t := range tables {
			for _, r := range t.Records {
				if i < len(r.Values) {
					values = append(values, r.Values[i])
				}
			}
		}
		cat.Corpora[i] = metrics.NewCorpus(values, 0.5)
	}
	return cat
}

// Record is one row of a table. EntityID identifies the real-world entity
// the record refers to; records with equal non-empty EntityIDs are
// equivalent. For real datasets without known entities EntityID may be "".
type Record struct {
	ID       string
	EntityID string
	Values   []string
}

// Table is a collection of records under a schema.
type Table struct {
	Name    string
	Schema  *Schema
	Records []Record
}

// Pair is a candidate record pair: indices into the workload's Left and
// Right tables plus the ground-truth equivalence flag.
type Pair struct {
	Left  int
	Right int
	Match bool
}

// Workload is an ER task: two tables and the candidate pairs between them
// (paper notation: D = {d_1..d_n}).
type Workload struct {
	Name        string
	Left, Right *Table
	Pairs       []Pair
}

// Values returns the attribute value slices of the two records of pair i.
func (w *Workload) Values(i int) (a, b []string) {
	p := w.Pairs[i]
	return w.Left.Records[p.Left].Values, w.Right.Records[p.Right].Values
}

// MatchCount returns the number of ground-truth equivalent pairs.
func (w *Workload) MatchCount() int {
	n := 0
	for _, p := range w.Pairs {
		if p.Match {
			n++
		}
	}
	return n
}

// Stats summarizes the workload in the shape of paper Table 2.
type Stats struct {
	Name       string
	Size       int // number of candidate pairs
	Matches    int
	Attributes int
}

// Stats returns the Table 2 row for this workload.
func (w *Workload) Stats() Stats {
	return Stats{
		Name:       w.Name,
		Size:       len(w.Pairs),
		Matches:    w.MatchCount(),
		Attributes: len(w.Left.Schema.Attrs),
	}
}

// String renders the stats as a Table 2-style row.
func (s Stats) String() string {
	return fmt.Sprintf("%-8s %8d %9d %12d", s.Name, s.Size, s.Matches, s.Attributes)
}

// Split holds pair indices for the three roles of the paper's protocol:
// classifier training, validation (= risk-model training) and test.
type Split struct {
	Train []int
	Valid []int
	Test  []int
}

// ParseRatio parses a "t:v:s" ratio string such as "3:2:5" into three
// positive proportions summing to 1.
func ParseRatio(ratio string) (t, v, s float64, err error) {
	parts := strings.Split(ratio, ":")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("dataset: ratio %q must have three components", ratio)
	}
	vals := make([]float64, 3)
	sum := 0.0
	for i, p := range parts {
		x, perr := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if perr != nil || x <= 0 {
			return 0, 0, 0, fmt.Errorf("dataset: bad ratio component %q", p)
		}
		vals[i] = x
		sum += x
	}
	return vals[0] / sum, vals[1] / sum, vals[2] / sum, nil
}

// SplitPairs partitions the workload's pair indices into train/valid/test
// by the given ratio string, stratified by match status so every part keeps
// the workload's class imbalance (the paper splits "each test dataset into
// three parts by a pre-specified ratio"). The split is deterministic in the
// seed.
func (w *Workload) SplitPairs(ratio string, seed uint64) (Split, error) {
	match := make([]bool, len(w.Pairs))
	for i, p := range w.Pairs {
		match[i] = p.Match
	}
	return SplitFlags(match, ratio, seed)
}

// SplitFlags is SplitPairs over bare ground-truth flags: it partitions the
// indices 0..len(match)-1 by the ratio string, stratified by flag, with the
// same RNG consumption order as SplitPairs — a workload whose pair i has
// Match == match[i] splits identically. The facade's batch pipeline uses it
// to split from a one-pass flag scan over the pair stream.
func SplitFlags(match []bool, ratio string, seed uint64) (Split, error) {
	ft, fv, _, err := ParseRatio(ratio)
	if err != nil {
		return Split{}, err
	}
	rng := stats.NewRNG(seed)
	var matches, nonMatches []int
	for i, m := range match {
		if m {
			matches = append(matches, i)
		} else {
			nonMatches = append(nonMatches, i)
		}
	}
	var sp Split
	for _, class := range [][]int{matches, nonMatches} {
		class := class
		rng.Shuffle(len(class), func(i, j int) { class[i], class[j] = class[j], class[i] })
		nt := int(ft * float64(len(class)))
		nv := int(fv * float64(len(class)))
		sp.Train = append(sp.Train, class[:nt]...)
		sp.Valid = append(sp.Valid, class[nt:nt+nv]...)
		sp.Test = append(sp.Test, class[nt+nv:]...)
	}
	// Shuffle each part so downstream consumers see mixed classes.
	for _, part := range [][]int{sp.Train, sp.Valid, sp.Test} {
		part := part
		rng.Shuffle(len(part), func(i, j int) { part[i], part[j] = part[j], part[i] })
	}
	if len(sp.Train) == 0 || len(sp.Valid) == 0 || len(sp.Test) == 0 {
		return Split{}, errors.New("dataset: split produced an empty part; workload too small")
	}
	return sp, nil
}

// Subsample returns up to n pair indices drawn uniformly without
// replacement, deterministic in the seed (used by the HoloClean comparison,
// which samples 1000/2000-pair workloads).
func (w *Workload) Subsample(n int, seed uint64) []int {
	rng := stats.NewRNG(seed)
	if n >= len(w.Pairs) {
		idx := make([]int, len(w.Pairs))
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	return rng.Sample(len(w.Pairs), n)
}

// Sub builds a new workload containing only the given pair indices (the
// record tables are shared, not copied).
func (w *Workload) Sub(name string, idx []int) *Workload {
	pairs := make([]Pair, len(idx))
	for i, j := range idx {
		pairs[i] = w.Pairs[j]
	}
	return &Workload{Name: name, Left: w.Left, Right: w.Right, Pairs: pairs}
}

// Validate checks structural invariants: pair indices in range and schema
// agreement between the two tables. It is used by tests and by the CSV
// loaders.
func (w *Workload) Validate() error {
	if w.Left == nil || w.Right == nil {
		return errors.New("dataset: workload missing a table")
	}
	if len(w.Left.Schema.Attrs) != len(w.Right.Schema.Attrs) {
		return errors.New("dataset: table schemas have different arity")
	}
	for i, p := range w.Pairs {
		if p.Left < 0 || p.Left >= len(w.Left.Records) {
			return fmt.Errorf("dataset: pair %d left index %d out of range", i, p.Left)
		}
		if p.Right < 0 || p.Right >= len(w.Right.Records) {
			return fmt.Errorf("dataset: pair %d right index %d out of range", i, p.Right)
		}
	}
	return nil
}
