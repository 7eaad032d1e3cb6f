package partition

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/match"
)

// FuzzPartitionedMatchesFlat is TestFuzzPartitionedMatchesFlat's oracle
// driven by fuzz bytes: the first byte picks one of oracleCases, and each
// following byte pair is one operation — an add, a delete or a resolve —
// whose second byte picks its record or probe from a fixed table of 256
// drawn over the small vocabulary. Every resolve of the partitioned store
// must equal the flat store's: IDs, rank bits and order.
func FuzzPartitionedMatchesFlat(f *testing.F) {
	const arity = 2
	rng := rand.New(rand.NewSource(1))
	var table [256][]string
	for i := range table {
		table[i] = randValues(rng, arity)
	}
	for c := range oracleCases {
		seed := make([]byte, 97)
		rng.Read(seed)
		seed[0] = byte(c)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		tc := oracleCases[int(in[0])%len(oracleCases)]
		ps, err := New(arity, nil, Options{Partitions: tc.parts, Match: tc.cfg})
		if err != nil {
			t.Fatal(err)
		}
		flat, err := match.New(arity, nil, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The minimizer's cost grows with the square of an input's length,
		// so read at most 48 operations.
		ops := in[1:min(len(in), 97)]
		var live []uint64
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], int(ops[i+1])
			switch {
			case op%4 < 2:
				gotID, err := ps.Add(table[arg])
				if err != nil {
					t.Fatalf("partitioned add: %v", err)
				}
				if wantID, _ := flat.Add(table[arg]); gotID != wantID {
					t.Fatalf("partitioned assigned ID %d, flat assigned %d", gotID, wantID)
				}
				live = append(live, gotID)
			case op%4 == 2 && len(live) > 0:
				j := arg % len(live)
				id := live[j]
				live = slices.Delete(live, j, j+1)
				got, err := ps.Delete(id)
				if err != nil {
					t.Fatalf("partitioned delete(%d): %v", id, err)
				}
				if want := flat.Delete(id); got != want {
					t.Fatalf("delete(%d): partitioned=%v flat=%v", id, got, want)
				}
			default:
				probe, k := table[arg], 1+int(op/4)%5
				got, err := fakeResolve(ps, probe, k)
				if err != nil {
					t.Fatalf("partitioned resolve: %v", err)
				}
				if want := flatOracle(flat, probe, k); !slices.Equal(got, want) {
					t.Fatalf("resolve(%v, k=%d) diverged (%d live records)\npartitioned: %v\nflat:        %v",
						probe, k, len(live), got, want)
				}
			}
		}
	})
}
