package clock

import (
	"fmt"
	"testing"
)

// The DenseSparseCutoff boundary: NewVectorState must pick the dense
// representation up to and including the cutoff and the sparse one just
// above it, and — more importantly — the two representations must emit
// bit-identical stamps and snapshots when driven through identical rule
// sequences at exactly p ∈ {cutoff-1, cutoff, cutoff+1}. A checker or
// sensor fleet straddling the boundary (say p grows from 128 to 129
// between runs) must see no observable behaviour change beyond memory.

func TestCutoffRepresentationPick(t *testing.T) {
	cases := []struct {
		n          int
		wantSparse bool
	}{
		{DenseSparseCutoff - 1, false}, // 127
		{DenseSparseCutoff, false},     // 128: at the cutoff, dense
		{DenseSparseCutoff + 1, true},  // 129: first sparse size
	}
	for _, tc := range cases {
		vs := NewVectorState(new(SparseStrobeVector), 0, tc.n)
		_, sparse := vs.(*SparseStrobeVector)
		_, dense := vs.(*DiffStrobeVector)
		if sparse == dense {
			t.Fatalf("n=%d: expected exactly one representation, got sparse=%v dense=%v", tc.n, sparse, dense)
		}
		if sparse != tc.wantSparse {
			t.Errorf("n=%d: NewVectorState picked sparse=%v, want %v", tc.n, sparse, tc.wantSparse)
		}
	}
}

// driveCutoffPair runs the same deterministic strobe/receive schedule
// through a dense and a sparse clock for every process and requires
// bit-identical stamps at each step and bit-identical snapshots at the
// end. The schedule exercises first-strobe, re-strobe with no change,
// multi-hop gossip (stamps relayed through a middle process) and an
// epoch reset, at a fixed set of "active" processes so the sparse state
// stays genuinely sparse.
func driveCutoffPair(t *testing.T, n int) {
	t.Helper()
	dense := make([]*DiffStrobeVector, n)
	sparse := make([]*SparseStrobeVector, n)
	// Only a handful of processes participate: boundary ids plus a few
	// in the middle, mimicking a neighborhood-scoped fleet.
	active := []int{0, 1, n / 2, n - 2, n - 1}
	for _, p := range active {
		dense[p] = NewDiffStrobeVector(p, n)
		sparse[p] = NewSparseStrobeVector(p, n)
	}
	// step strobes process p on both representations, checks the stamps
	// match, and delivers them to every other active process.
	step := func(p int) {
		t.Helper()
		ds := dense[p].Strobe()
		ss := sparse[p].Strobe()
		if fmt.Sprint(ds) != fmt.Sprint(ss) {
			t.Fatalf("n=%d proc=%d: stamp mismatch\n dense:  %v\n sparse: %v", n, p, ds, ss)
		}
		for _, q := range active {
			if q == p {
				continue
			}
			dense[q].OnStrobe(ds)
			sparse[q].OnStrobe(ss)
		}
	}
	for round := 0; round < 4; round++ {
		for _, p := range active {
			step(p)
		}
	}
	// Epoch reset on one process (a rejoin builds a fresh clock in the
	// same representation, mirroring Sensor.Rejoin), then more rounds:
	// the post-reset stamps must also agree.
	dense[active[1]] = NewDiffStrobeVector(active[1], n)
	sparse[active[1]] = NewSparseStrobeVector(active[1], n)
	for round := 0; round < 2; round++ {
		for _, p := range active {
			step(p)
		}
	}
	for _, p := range active {
		dv, sv := dense[p].Snapshot(), sparse[p].Snapshot()
		if len(dv) != n || len(sv) != n {
			t.Fatalf("n=%d proc=%d: snapshot lengths %d/%d, want %d", n, p, len(dv), len(sv), n)
		}
		for i := range dv {
			if dv[i] != sv[i] {
				t.Fatalf("n=%d proc=%d: snapshot[%d] dense=%d sparse=%d", n, p, i, dv[i], sv[i])
			}
		}
		if dense[p].OwnClock() != sparse[p].OwnClock() {
			t.Fatalf("n=%d proc=%d: OwnClock dense=%d sparse=%d", n, p, dense[p].OwnClock(), sparse[p].OwnClock())
		}
	}
}

func TestCutoffBitIdenticalStamps(t *testing.T) {
	for _, n := range []int{DenseSparseCutoff - 1, DenseSparseCutoff, DenseSparseCutoff + 1} {
		t.Run(fmt.Sprintf("p=%d", n), func(t *testing.T) { driveCutoffPair(t, n) })
	}
}
