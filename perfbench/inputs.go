package main

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"

	learnrisk "repro"
)

// buildDir holds everything building and running the benchmark leaves
// behind: the Go build cache, the binaries and per-run scratch directories.
const buildDir = ".bench_build"

// profileAttrs are the schemas of the synthetic profiles the workloads use,
// in the generator's attribute order. LoadCSV needs the types; the names are
// checked against the generated workload.
var profileAttrs = map[string][]learnrisk.Attr{
	"AG": {{Name: "title", Type: "text"}, {Name: "manufacturer", Type: "entity-name"}, {Name: "description", Type: "text"}, {Name: "price", Type: "numeric"}},
	"AB": {{Name: "name", Type: "entity-name"}, {Name: "description", Type: "text"}, {Name: "price", Type: "numeric"}},
}

// tables is one generated workload written as two table CSVs.
type tables struct {
	name        string
	left, right string
	attrs       []learnrisk.Attr
}

// writeTables generates a synthetic profile and writes its two tables in
// the repository's table layout (id, entity_id, one column per attribute).
func writeTables(dir, profile string, scale float64, seed uint64) (tables, error) {
	attrs := profileAttrs[profile]
	w, err := learnrisk.Generate(profile, scale, seed)
	if err != nil {
		return tables{}, err
	}
	names := make([]string, len(attrs))
	for i, a := range attrs {
		names[i] = a.Name
	}
	if !slices.Equal(names, w.AttrNames()) {
		return tables{}, fmt.Errorf("profile %s has attributes %v, the benchmark expects %v", profile, w.AttrNames(), names)
	}
	t := tables{
		name:  profile,
		left:  filepath.Join(dir, profile+"-left.csv"),
		right: filepath.Join(dir, profile+"-right.csv"),
		attrs: attrs,
	}
	if err := writeTableCSV(t.left, names, w.NumLeftRecords(), w.LeftRecordAt); err != nil {
		return tables{}, err
	}
	if err := writeTableCSV(t.right, names, w.NumRightRecords(), w.RightRecordAt); err != nil {
		return tables{}, err
	}
	return t, nil
}

// writeTableCSV writes n records fetched by at under a header row.
func writeTableCSV(path string, names []string, n int, at func(int) ([]string, string)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	cw := csv.NewWriter(f)
	if err := cw.Write(append([]string{"id", "entity_id"}, names...)); err != nil {
		f.Close()
		return err
	}
	for i := 0; i < n; i++ {
		values, entity := at(i)
		if err := cw.Write(append([]string{strconv.Itoa(i), entity}, values...)); err != nil {
			f.Close()
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// mix64 is splitmix64: a per-operation random stream derived from the seed
// and the operation index, so an operation's content never depends on
// which sender took it or when.
func mix64(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
