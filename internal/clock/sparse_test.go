package clock

import (
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"pervasive/internal/stats"
)

// TestSparseEquivalentToDense drives the dense and sparse representations
// through an identical random rule sequence and requires byte-identical
// stamps and snapshots at every step: representation must be invisible.
func TestSparseEquivalentToDense(t *testing.T) {
	const n = 40
	r := stats.NewRNG(7)
	dense := make([]*DiffStrobeVector, n)
	sparse := make([]*SparseStrobeVector, n)
	for i := 0; i < n; i++ {
		dense[i] = NewDiffStrobeVector(i, n)
		sparse[i] = NewSparseStrobeVector(i, n)
	}
	for step := 0; step < 2000; step++ {
		p := int(r.Int63n(n))
		ds, ss := dense[p].Strobe(), sparse[p].Strobe()
		if !reflect.DeepEqual(ds, ss) {
			t.Fatalf("step %d: stamp diverged\ndense:  %v\nsparse: %v", step, ds, ss)
		}
		// Deliver to a random subset, same for both representations.
		for q := 0; q < n; q++ {
			if q != p && r.Bool(0.2) {
				dense[q].OnStrobe(ds)
				sparse[q].OnStrobe(ss)
			}
		}
		if step%200 == 0 {
			q := int(r.Int63n(n))
			if dv, sv := dense[q].Snapshot(), sparse[q].Snapshot(); !reflect.DeepEqual(dv, sv) {
				t.Fatalf("step %d: snapshot diverged for %d\ndense:  %v\nsparse: %v", step, q, dv, sv)
			}
			if dense[q].OwnClock() != sparse[q].OwnClock() {
				t.Fatalf("step %d: own clock diverged for %d", step, q)
			}
		}
	}
	for q := 0; q < n; q++ {
		if dv, sv := dense[q].Snapshot(), sparse[q].Snapshot(); !reflect.DeepEqual(dv, sv) {
			t.Fatalf("final snapshot diverged for %d", q)
		}
	}
}

// TestSparseStateSublinear: with k active peers the sparse footprint must
// track k, not the system size n.
func TestSparseStateSublinear(t *testing.T) {
	const n, k = 1 << 16, 12
	s := NewSparseStrobeVector(0, n)
	var st SparseStamp
	for p := 1; p <= k; p++ {
		st = append(st, SparseEntry{Proc: p * 31, Val: uint64(p)})
	}
	s.OnStrobe(st)
	if got := s.ActivePeers(); got != k {
		t.Fatalf("ActivePeers = %d, want %d", got, k)
	}
	dense := NewDiffStrobeVector(0, n).StateBytes()
	if sb := s.StateBytes(); sb*100 > dense {
		t.Fatalf("sparse state %dB not sublinear vs dense %dB at n=%d", sb, dense, n)
	}
}

// TestSparseStateBytesFollowsLayout: the state is one slice of 8-byte
// words, the struct fits the 56 bytes a sensor slab entry budgets for it,
// and StateBytes — what clock.state_bytes, pervasim's fleet:
// line and E14's "clock KB" column report — is the struct plus that
// slice's capacity as the compiler lays them out, not a hand-kept figure.
func TestSparseStateBytesFollowsLayout(t *testing.T) {
	if got := unsafe.Sizeof(SparseStrobeVector{}.comps[0]); got != 8 {
		t.Errorf("a component is %d bytes, want 8 (proc, value and dirty bit share one word)", got)
	}
	if got := unsafe.Sizeof(SparseStrobeVector{}); got > 56 {
		t.Errorf("SparseStrobeVector is %d bytes, want at most 56", got)
	}
	slices := 0
	for typ, i := reflect.TypeOf(SparseStrobeVector{}), 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() == reflect.Slice {
			slices++
		}
	}
	if slices != 1 {
		t.Errorf("SparseStrobeVector holds %d slices, want 1 (a second column is a second growth sequence)", slices)
	}
	s := NewSparseStrobeVector(0, 4096)
	if got, want := s.StateBytes(), int(unsafe.Sizeof(*s)); got != want {
		t.Errorf("empty StateBytes = %d, want the struct's %d", got, want)
	}
	var st SparseStamp
	for p := 1; p <= 37; p++ {
		st = append(st, SparseEntry{Proc: p * 5, Val: 1})
	}
	s.OnStrobe(st)
	want := int(unsafe.Sizeof(*s)) + cap(s.comps)*int(unsafe.Sizeof(s.comps[0]))
	if got := s.StateBytes(); got != want {
		t.Errorf("StateBytes = %d, want %d (struct + cap × component)", got, want)
	}
}

// TestSparseValueBound: a component value takes the bits between the proc
// field and the dirty bit, so the largest one a clock of n processes holds
// is 2^(63-bits.Len(n-1)) - 1. That value merges, strobes and snapshots
// exactly, next to the highest proc; one above it panics with
// errValueBound; a re-initialised (rejoined) or reset clock keeps the
// width.
func TestSparseValueBound(t *testing.T) {
	for _, n := range []int{129, 4096, 1 << 16, 1 << 20} {
		top := uint64(1)<<(63-bits.Len(uint(n-1))) - 1
		s := NewSparseStrobeVector(1, n)
		holds := func(stage string) {
			t.Helper()
			s.OnStrobe(SparseStamp{{Proc: 0, Val: top - 1}, {Proc: n - 1, Val: top}})
			s.OnStrobe(SparseStamp{{Proc: 0, Val: top}})
			want := SparseStamp{{Proc: 0, Val: top}, {Proc: 1, Val: s.OwnClock() + 1}, {Proc: n - 1, Val: top}}
			if got := s.Strobe(); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d %s: stamp %v, want %v", n, stage, got, want)
			}
			if v := s.Snapshot(); v[0] != top || v[n-1] != top {
				t.Fatalf("n=%d %s: snapshot holds %d and %d, want %d", n, stage, v[0], v[n-1], top)
			}
			func() {
				defer func() {
					if p := recover(); p != errValueBound {
						t.Fatalf("n=%d %s: value %d merged with %v, want the %q panic", n, stage, top+1, p, errValueBound)
					}
				}()
				s.OnStrobe(SparseStamp{{Proc: 2, Val: top + 1}})
			}()
		}
		holds("fresh")
		s.Init(1, n)
		holds("rejoined")
		s.Reset()
		holds("reset")
	}
}

// TestSparseAllocations pins the kernels' allocation contracts, beside
// TestDiffStrobeSingleAllocation: Strobe allocates exactly its stamp,
// dirty or clean; a merge that only hits allocates nothing; a sorted
// stamp of k new peers costs nothing into spare capacity and one grow —
// not k — into a full slice.
func TestSparseAllocations(t *testing.T) {
	const n, known, fresh = 4096, 200, 24
	var hits, news SparseStamp
	for i := 1; i <= known; i++ {
		hits = append(hits, SparseEntry{Proc: 2 * i, Val: 1})
	}
	for i := 1; i <= fresh; i++ {
		news = append(news, SparseEntry{Proc: 16*i + 1, Val: 1}) // odd: between the known ones
	}
	s := NewSparseStrobeVector(0, n)
	s.OnStrobe(hits)
	s.Strobe()
	if allocs := testing.AllocsPerRun(100, func() { s.Strobe() }); allocs != 1 {
		t.Errorf("clean strobe: %.1f allocs, want 1", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for i := range hits {
			hits[i].Val++
		}
		s.OnStrobe(hits)
		if len(s.Strobe()) != known+1 {
			t.Fatal("the raised components were not all stamped")
		}
	}); allocs != 1 {
		t.Errorf("all-hits merge + dirty strobe: %.1f allocs, want 1 (the stamp)", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.OnStrobe(hits) }); allocs != 0 {
		t.Errorf("all-hits merge: %.1f allocs, want 0", allocs)
	}

	// The grow is append(comps, make([]uint64, misses)...), which the
	// compiler turns into an in-place extension — except in instrumented
	// (-race) builds, where the make is a real temporary: one allocation
	// per merge with misses that is the build's, not the kernel's.
	roomy := make([]uint64, known, known+fresh)
	var extended []uint64
	temp := testing.AllocsPerRun(10, func() { extended = append(roomy[:0], make([]uint64, len(news))...) })
	if len(extended) != fresh {
		t.Fatalf("probe extended to %d, want %d", len(extended), fresh)
	}

	full := make([]uint64, known) // len == cap
	copy(full, s.comps)
	if allocs := testing.AllocsPerRun(100, func() {
		s.comps, s.dirty = full, 0 // the grow leaves full's array as it was
		s.OnStrobe(news)
	}); allocs != 1+temp {
		t.Errorf("%d new peers into a full slice: %.1f allocs, want %.0f: one grow", fresh, allocs, 1+temp)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		s.comps, s.dirty = roomy[:copy(roomy, full)], 0 // the merge shifts in place: restore
		s.OnStrobe(news)
	}); allocs != temp {
		t.Errorf("%d new peers into spare capacity: %.1f allocs, want %.0f", fresh, allocs, temp)
	}
	if s.ActivePeers() != known+fresh || s.dirty != fresh {
		t.Errorf("after the merge: %d peers, %d dirty; want %d, %d", s.ActivePeers(), s.dirty, known+fresh, fresh)
	}
}

// TestSparseStrobeEmitsSortedExactDiff: the stamp lists changed components
// in proc order, own component included at its sorted position, and the
// second strobe with no new information carries only the own tick.
func TestSparseStrobeEmitsSortedExactDiff(t *testing.T) {
	s := NewSparseStrobeVector(5, 64)
	s.OnStrobe(SparseStamp{{Proc: 9, Val: 3}, {Proc: 2, Val: 1}})
	got := s.Strobe()
	want := SparseStamp{{Proc: 2, Val: 1}, {Proc: 5, Val: 1}, {Proc: 9, Val: 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("first stamp = %v, want %v", got, want)
	}
	got = s.Strobe()
	want = SparseStamp{{Proc: 5, Val: 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("second stamp = %v, want %v", got, want)
	}
}

// TestSparseOnStrobeIgnoresJunk: out-of-range procs and zero values are
// no-ops, matching the dense merge.
func TestSparseOnStrobeIgnoresJunk(t *testing.T) {
	s := NewSparseStrobeVector(0, 8)
	s.OnStrobe(SparseStamp{{Proc: -1, Val: 9}, {Proc: 8, Val: 9}, {Proc: 3, Val: 0}})
	if s.ActivePeers() != 0 {
		t.Fatalf("junk entries created components: %d", s.ActivePeers())
	}
	// Stale (smaller) values must not regress a component.
	s.OnStrobe(SparseStamp{{Proc: 3, Val: 5}})
	s.OnStrobe(SparseStamp{{Proc: 3, Val: 2}})
	if v := s.Snapshot()[3]; v != 5 {
		t.Fatalf("component regressed to %d", v)
	}
}

// TestSparseReset: the epoch reset zeroes the clock and releases storage.
func TestSparseReset(t *testing.T) {
	s := NewSparseStrobeVector(1, 32)
	s.Strobe()
	s.OnStrobe(SparseStamp{{Proc: 7, Val: 4}})
	s.Reset()
	if s.OwnClock() != 0 || s.ActivePeers() != 0 {
		t.Fatalf("Reset left state: own=%d peers=%d", s.OwnClock(), s.ActivePeers())
	}
	if got := s.Strobe(); !reflect.DeepEqual(got, SparseStamp{{Proc: 1, Val: 1}}) {
		t.Fatalf("post-reset stamp = %v", got)
	}
}

// driveCutoffPair runs the same deterministic strobe/receive schedule
// through the dense reference and the sparse clock for every process and
// requires bit-identical stamps at each step and bit-identical snapshots
// at the end. The schedule exercises first-strobe, re-strobe with no
// change, multi-hop gossip (stamps relayed through a middle process) and
// an epoch reset, at a fixed set of "active" processes: at n ≤ 5 that is
// every process, so the clocks come to know every peer; above, the
// sparse state stays genuinely sparse.
func driveCutoffPair(t *testing.T, n int) {
	t.Helper()
	dense := make([]*DiffStrobeVector, n)
	sparse := make([]*SparseStrobeVector, n)
	// Only a handful of processes participate: boundary ids plus a few
	// in the middle, mimicking a neighborhood-scoped fleet.
	active := []int{0, 1, n / 2, n - 2, n - 1}
	slices.Sort(active)
	active = slices.Compact(active)
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
	// same representation, as Sensor.Rejoin does), then more rounds:
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

// TestCutoffBitIdenticalStamps drives the pair at the smallest fleets,
// where every clock comes to know every peer, and either side of 128, the
// size at which the dense layout once gave way to the sparse one.
func TestCutoffBitIdenticalStamps(t *testing.T) {
	for _, n := range []int{2, 3, 64, 127, 128, 129} {
		t.Run(fmt.Sprintf("p=%d", n), func(t *testing.T) { driveCutoffPair(t, n) })
	}
}
