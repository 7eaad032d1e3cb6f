package dataset

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/metrics"
)

func tinyWorkload() *Workload {
	schema := &Schema{Name: "papers", Attrs: []Attr{
		{Name: "title", Type: metrics.Text},
		{Name: "year", Type: metrics.Numeric},
	}}
	left := &Table{Name: "L", Schema: schema, Records: []Record{
		{ID: "l0", EntityID: "e0", Values: []string{"spatial joins", "1993"}},
		{ID: "l1", EntityID: "e1", Values: []string{"query optimization", "1998"}},
		{ID: "l2", EntityID: "e2", Values: []string{"r tree variants", "1990"}},
	}}
	right := &Table{Name: "R", Schema: schema, Records: []Record{
		{ID: "r0", EntityID: "e0", Values: []string{"spatial join processing", "1993"}},
		{ID: "r1", EntityID: "e1", Values: []string{"query optimisation", "1998"}},
		{ID: "r2", EntityID: "e9", Values: []string{"b tree locking", "1981"}},
	}}
	return &Workload{
		Name: "tiny", Left: left, Right: right,
		Pairs: []Pair{
			{Left: 0, Right: 0, Match: true},
			{Left: 1, Right: 1, Match: true},
			{Left: 2, Right: 2, Match: false},
			{Left: 0, Right: 2, Match: false},
			{Left: 1, Right: 0, Match: false},
			{Left: 2, Right: 0, Match: false},
		},
	}
}

func TestWorkloadBasics(t *testing.T) {
	w := tinyWorkload()
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := w.MatchCount(); got != 2 {
		t.Errorf("MatchCount = %d, want 2", got)
	}
	a, b := w.Values(0)
	if a[0] != "spatial joins" || b[0] != "spatial join processing" {
		t.Errorf("Values(0) = %v, %v", a, b)
	}
	st := w.Stats()
	if st.Size != 6 || st.Matches != 2 || st.Attributes != 2 {
		t.Errorf("Stats = %+v", st)
	}
	if !strings.Contains(st.String(), "tiny") {
		t.Errorf("Stats.String missing name: %q", st.String())
	}
}

func TestValidateCatchesBadPairs(t *testing.T) {
	w := tinyWorkload()
	w.Pairs = append(w.Pairs, Pair{Left: 99, Right: 0})
	if err := w.Validate(); err == nil {
		t.Error("expected out-of-range error")
	}
	w2 := tinyWorkload()
	w2.Pairs = append(w2.Pairs, Pair{Left: 0, Right: -1})
	if err := w2.Validate(); err == nil {
		t.Error("expected negative-index error")
	}
	if err := (&Workload{}).Validate(); err == nil {
		t.Error("expected missing-table error")
	}
}

func TestParseRatio(t *testing.T) {
	tt, v, s, err := ParseRatio("3:2:5")
	if err != nil {
		t.Fatal(err)
	}
	if tt != 0.3 || v != 0.2 || s != 0.5 {
		t.Errorf("ParseRatio(3:2:5) = %v %v %v", tt, v, s)
	}
	for _, bad := range []string{"3:2", "a:b:c", "0:1:1", "-1:1:1", ""} {
		if _, _, _, err := ParseRatio(bad); err == nil {
			t.Errorf("ParseRatio(%q) should fail", bad)
		}
	}
}

func TestSplitPairsStratified(t *testing.T) {
	w := tinyWorkload()
	// Inflate the workload so every part is nonempty.
	for i := 0; i < 20; i++ {
		w.Pairs = append(w.Pairs, Pair{Left: i % 3, Right: (i + 1) % 3, Match: i%5 == 0})
	}
	sp, err := w.SplitPairs("3:2:5", 1)
	if err != nil {
		t.Fatal(err)
	}
	total := len(sp.Train) + len(sp.Valid) + len(sp.Test)
	if total != len(w.Pairs) {
		t.Fatalf("split covers %d of %d pairs", total, len(w.Pairs))
	}
	seen := make(map[int]bool)
	for _, part := range [][]int{sp.Train, sp.Valid, sp.Test} {
		for _, i := range part {
			if seen[i] {
				t.Fatalf("pair %d in multiple parts", i)
			}
			seen[i] = true
		}
	}
	// Determinism.
	sp2, _ := w.SplitPairs("3:2:5", 1)
	for i := range sp.Train {
		if sp.Train[i] != sp2.Train[i] {
			t.Fatal("split not deterministic for same seed")
		}
	}
	// Different seed should (almost surely) change order.
	sp3, _ := w.SplitPairs("3:2:5", 2)
	same := len(sp3.Train) == len(sp.Train)
	if same {
		diff := false
		for i := range sp.Train {
			if sp.Train[i] != sp3.Train[i] {
				diff = true
			}
		}
		if !diff {
			t.Error("different seeds produced identical splits")
		}
	}
}

func TestSplitPairsErrors(t *testing.T) {
	w := tinyWorkload()
	if _, err := w.SplitPairs("bogus", 1); err == nil {
		t.Error("bad ratio should fail")
	}
	small := &Workload{Left: w.Left, Right: w.Right, Pairs: w.Pairs[:1]}
	if _, err := small.SplitPairs("1:1:1", 1); err == nil {
		t.Error("too-small workload should fail to split")
	}
}

func TestSubsampleAndSub(t *testing.T) {
	w := tinyWorkload()
	idx := w.Subsample(3, 7)
	if len(idx) != 3 {
		t.Fatalf("Subsample returned %d", len(idx))
	}
	all := w.Subsample(100, 7)
	if len(all) != len(w.Pairs) {
		t.Fatalf("oversized Subsample should return all pairs")
	}
	sub := w.Sub("sub", idx)
	if len(sub.Pairs) != 3 || sub.Left != w.Left {
		t.Error("Sub should share tables and select pairs")
	}
	if err := sub.Validate(); err != nil {
		t.Error(err)
	}
}

func TestSchemaCatalog(t *testing.T) {
	w := tinyWorkload()
	cat := w.Left.Schema.Catalog(w.Left, w.Right)
	if len(cat.Metrics) == 0 {
		t.Fatal("empty catalog")
	}
	if len(cat.Corpora) != 2 {
		t.Fatalf("corpora = %d, want 2", len(cat.Corpora))
	}
	if cat.Corpora[0].Docs() != 6 {
		t.Errorf("title corpus docs = %d, want 6", cat.Corpora[0].Docs())
	}
	needs := cat.AttrNeeds()
	if len(needs) != len(w.Left.Schema.Attrs) {
		t.Fatalf("catalog covers %d attributes, schema has %d", len(needs), len(w.Left.Schema.Attrs))
	}
	pa, pb := make([]metrics.Prepared, len(needs)), make([]metrics.Prepared, len(needs))
	for a, n := range needs {
		pa[a].Reset(w.Left.Records[0].Values[a], n)
		pb[a].Reset(w.Right.Records[0].Values[a], n)
	}
	cat.ComputePreparedInto(make([]float64, len(cat.Metrics)), pa, pb, nil)
}

func TestCSVRoundTrip(t *testing.T) {
	w := tinyWorkload()
	var tblBuf bytes.Buffer
	if err := WriteTableCSV(&tblBuf, w.Left); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTableCSV(&tblBuf, "L", w.Left.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(w.Left.Records) {
		t.Fatalf("records = %d, want %d", len(got.Records), len(w.Left.Records))
	}
	for i, r := range got.Records {
		if r.ID != w.Left.Records[i].ID || r.Values[0] != w.Left.Records[i].Values[0] {
			t.Errorf("record %d mismatch: %+v", i, r)
		}
	}

	var pairBuf bytes.Buffer
	if err := WritePairsCSV(&pairBuf, w); err != nil {
		t.Fatal(err)
	}
	pairs, err := ReadPairsCSV(&pairBuf, w.Left, w.Right)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != len(w.Pairs) {
		t.Fatalf("pairs = %d, want %d", len(pairs), len(w.Pairs))
	}
	for i, p := range pairs {
		if p != w.Pairs[i] {
			t.Errorf("pair %d = %+v, want %+v", i, p, w.Pairs[i])
		}
	}
}

func TestCSVErrors(t *testing.T) {
	schema := tinyWorkload().Left.Schema
	if _, err := ReadTableCSV(strings.NewReader(""), "x", schema); err == nil {
		t.Error("empty CSV should fail")
	}
	// Row with too many columns.
	bad := "id,entity_id,title,year\nr1,e1,a,b,c,d\n"
	if _, err := ReadTableCSV(strings.NewReader(bad), "x", schema); err == nil {
		t.Error("oversized row should fail")
	}
	// Short row is padded, not an error.
	short := "id,entity_id,title,year\nr1,e1,only title\n"
	tbl, err := ReadTableCSV(strings.NewReader(short), "x", schema)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Records[0].Values[1] != "" {
		t.Error("short row should pad missing attributes")
	}
	// Unknown ids in pairs.
	w := tinyWorkload()
	badPairs := "left_id,right_id,match\nnope,r0,1\n"
	if _, err := ReadPairsCSV(strings.NewReader(badPairs), w.Left, w.Right); err == nil {
		t.Error("unknown left id should fail")
	}
	badPairs2 := "left_id,right_id,match\nl0,nope,1\n"
	if _, err := ReadPairsCSV(strings.NewReader(badPairs2), w.Left, w.Right); err == nil {
		t.Error("unknown right id should fail")
	}
	badPairs3 := "left_id,right_id,match\nl0,r0,maybe\n"
	if _, err := ReadPairsCSV(strings.NewReader(badPairs3), w.Left, w.Right); err == nil {
		t.Error("bad match flag should fail")
	}
}

func TestSaveWorkload(t *testing.T) {
	w := tinyWorkload()
	dir := t.TempDir()
	if err := SaveWorkload(dir, w); err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{"left", "right", "pairs"} {
		if _, err := readFile(dir + "/tiny_" + suffix + ".csv"); err != nil {
			t.Errorf("missing %s file: %v", suffix, err)
		}
	}
}

func readFile(path string) ([]byte, error) {
	return os.ReadFile(path)
}
