package clock

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"pervasive/internal/stats"
)

// Reset zeroes the clock in place, releasing the component storage and
// starting narrow again: the epoch-reset rule for a crashed-and-rejoining
// process.
func (s *SparseStrobeVector) Reset() { s.Init(int(s.me), int(s.n)) }

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
	if got := len(s.comps); got != k {
		t.Fatalf("ActivePeers = %d, want %d", got, k)
	}
	dense := NewDiffStrobeVector(0, n).StateBytes()
	if sb := s.StateBytes(); sb*100 > dense {
		t.Fatalf("sparse state %dB not sublinear vs dense %dB at n=%d", sb, dense, n)
	}
}

// TestSparseStateBytesFollowsLayout: the state is one slice of 4-byte
// words while the clock is narrow and, viewed through the same slice, of
// 8-byte ones once it is wide; the struct is the 48 bytes a sensor slab
// entry budgets for it; and StateBytes — what clock.state_bytes,
// pervasim's fleet: line and E14's "clock KB" column report — is the
// struct plus that array's size as the compiler lays them out, not a
// hand-kept figure.
func TestSparseStateBytesFollowsLayout(t *testing.T) {
	if got := unsafe.Sizeof(SparseStrobeVector{}); got != 48 {
		t.Errorf("SparseStrobeVector is %d bytes, want 48", got)
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
	const n = 4096
	s := NewSparseStrobeVector(0, n)
	if got, want := s.StateBytes(), int(unsafe.Sizeof(*s)); got != want {
		t.Errorf("empty StateBytes = %d, want the struct's %d", got, want)
	}
	var st SparseStamp
	for p := 1; p <= 37; p++ {
		st = append(st, SparseEntry{Proc: p * 5, Val: 1})
	}
	s.OnStrobe(st)
	if s.wide() {
		t.Fatal("values of 1 widened the clock")
	}
	if got := unsafe.Sizeof(words[uint32](s)[0]); got != 4 {
		t.Errorf("a narrow component is %d bytes, want 4", got)
	}
	if got, want := s.StateBytes(), int(unsafe.Sizeof(*s))+cap(words[uint32](s))*4; got != want {
		t.Errorf("narrow StateBytes = %d, want %d (struct + cap × 4)", got, want)
	}
	s.OnStrobe(SparseStamp{{Proc: 5, Val: narrowTop(n) + 1}})
	if !s.wide() {
		t.Fatal("a value above the narrow bound left the clock narrow")
	}
	ws := words[uint64](s)
	if got := unsafe.Sizeof(ws[0]); got != 8 {
		t.Errorf("a wide component is %d bytes, want 8", got)
	}
	if got, want := s.StateBytes(), int(unsafe.Sizeof(*s))+cap(ws)*8; got != want || len(ws) != 37 {
		t.Errorf("wide StateBytes = %d over %d words, want %d (struct + cap × 8) over 37", got, len(ws), want)
	}
}

// TestSparseValueBound: a component value takes the bits between the proc
// field and the dirty bit. A narrow clock holds its narrow bound, 2^(31 -
// bits.Len(n-1)) - 1, without widening; one above it widens the clock,
// which then holds 2^(63-bits.Len(n-1)) - 1 — merged, strobed and
// snapshotted exactly, next to the highest proc — and panics with
// errValueBound only one above that. A re-initialised (rejoined) or reset
// clock starts narrow again. Where 32 bits leave no value bit beside the
// proc field, the clock starts wide.
func TestSparseValueBound(t *testing.T) {
	for _, n := range []int{129, 4096, 1 << 16, 1 << 20} {
		top, edge := uint64(1)<<(63-bits.Len(uint(n-1)))-1, narrowTop(n)
		s := NewSparseStrobeVector(1, n)
		holds := func(stage string) {
			t.Helper()
			if s.OnStrobe(SparseStamp{{Proc: 0, Val: edge}}); s.wide() {
				t.Fatalf("n=%d %s: the narrow bound %d widened the clock", n, stage, edge)
			}
			s.OnStrobe(SparseStamp{{Proc: 0, Val: top - 1}, {Proc: n - 1, Val: top}})
			if !s.wide() {
				t.Fatalf("n=%d %s: value %d left the clock narrow", n, stage, top)
			}
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
	for _, c := range []struct {
		n    int
		wide bool
	}{{2, false}, {1 << 30, false}, {1<<30 + 1, true}, {math.MaxInt32, true}} {
		if got := NewSparseStrobeVector(0, c.n).wide(); got != c.wide {
			t.Errorf("n=%d: starts wide = %v, want %v", c.n, got, c.wide)
		}
	}
}

// TestSparseAllocations pins the kernels' allocation contracts at either
// width, beside TestDiffStrobeSingleAllocation: Strobe allocates exactly
// its stamp, dirty or clean, and StrobeInto a roomy stamp nothing; a
// merge that only hits allocates nothing; a sorted stamp of k new peers
// costs nothing into spare capacity and one grow — not k — into a full
// slice; and a widening, in the middle of a merge that raised words
// before it, costs one array.
func TestSparseAllocations(t *testing.T) {
	t.Run("narrow", func(t *testing.T) { sparseAllocations[uint32](t) })
	t.Run("wide", func(t *testing.T) { sparseAllocations[uint64](t) })
	t.Run("widen", func(t *testing.T) {
		const n, known = 4096, 200
		s := NewSparseStrobeVector(0, n)
		for i := 1; i <= known; i++ {
			s.OnStrobe(SparseStamp{{Proc: 2 * i, Val: 1}})
		}
		s.Strobe()
		narrow, shift := slices.Clone(s.comps), s.shift
		buf := make([]uint32, len(narrow), cap(s.comps))
		st := SparseStamp{{Proc: 2, Val: 5}, {Proc: 4, Val: 5}, {Proc: 6, Val: narrowTop(n) + 1}, {Proc: 7, Val: 1}}
		if allocs := testing.AllocsPerRun(100, func() {
			s.comps, s.shift, s.dirty = append(buf[:0], narrow...), shift, 0
			s.OnStrobe(st)
		}); allocs != 1+growTemp[uint64](known) {
			t.Errorf("a widening merge: %.1f allocs, want %.0f: one array", allocs, 1+growTemp[uint64](known))
		}
		if !s.wide() || len(words[uint64](s)) != known+1 || s.dirty != 4 {
			t.Errorf("after the widening merge: wide %v, %d peers, %d dirty; want true, %d, 4", s.wide(), len(words[uint64](s)), s.dirty, known+1)
		}
	})
}

// growTemp is the allocations a grow into a fresh W array makes beyond
// the array itself. A grow is append(comps[:0:old], make([]W, size)...),
// which the compiler turns into one allocation — except in instrumented
// (-race) builds, where the make is a real temporary: one more
// allocation per grow that is the build's, not the kernel's.
// (The probe's size is an argument: a make of constant size may stay on
// the stack where grow's cannot.)
func growTemp[W word](size int) float64 {
	roomy := make([]W, 0, size)
	var extended []W
	temp := testing.AllocsPerRun(10, func() { extended = append(roomy[:0], make([]W, size)...) })
	if len(extended) != size {
		panic("the probe did not extend")
	}
	return temp
}

// sparseAllocations is TestSparseAllocations at W's width.
func sparseAllocations[W word](t *testing.T) {
	const n, known, fresh = 4096, 200, 24
	base := uint64(0) // values from 1 up: narrow words
	if unsafe.Sizeof(W(0)) == 8 {
		base = narrowTop(n) // values past the narrow bound: the first merge widens
	}
	var hits, news SparseStamp
	for i := 1; i <= known; i++ {
		hits = append(hits, SparseEntry{Proc: 2 * i, Val: base + 1})
	}
	for i := 1; i <= fresh; i++ {
		news = append(news, SparseEntry{Proc: 16*i + 1, Val: base + 1}) // odd: between the known ones
	}
	s := NewSparseStrobeVector(0, n)
	s.OnStrobe(hits)
	if s.wide() != (unsafe.Sizeof(W(0)) == 8) {
		t.Fatalf("a %d-byte run on a clock with wide = %v", unsafe.Sizeof(W(0)), s.wide())
	}
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
	dst := make(SparseStamp, known+1)
	if allocs := testing.AllocsPerRun(100, func() {
		for i := range hits {
			hits[i].Val++
		}
		s.OnStrobe(hits)
		if dst = s.StrobeInto(dst); len(dst) != known+1 {
			t.Fatal("the raised components were not all stamped")
		}
	}); allocs != 0 {
		t.Errorf("all-hits merge + dirty StrobeInto a roomy stamp: %.1f allocs, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.OnStrobe(hits) }); allocs != 0 {
		t.Errorf("all-hits merge: %.1f allocs, want 0", allocs)
	}

	temp := growTemp[W](fresh)
	full := make([]W, known) // len == cap
	copy(full, words[W](s))
	roomy := make([]W, known, known+fresh)
	if allocs := testing.AllocsPerRun(100, func() {
		setWords(s, full) // the grow leaves full's array as it was
		s.dirty = 0
		s.OnStrobe(news)
	}); allocs != 1+temp {
		t.Errorf("%d new peers into a full slice: %.1f allocs, want %.0f: one grow", fresh, allocs, 1+temp)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		setWords(s, roomy[:copy(roomy, full)]) // the merge shifts in place: restore
		s.dirty = 0
		s.OnStrobe(news)
	}); allocs != 0 {
		t.Errorf("%d new peers into spare capacity: %.1f allocs, want 0", fresh, allocs)
	}
	if len(words[W](s)) != known+fresh || s.dirty != fresh {
		t.Errorf("after the merge: %d peers, %d dirty; want %d, %d", len(words[W](s)), s.dirty, known+fresh, fresh)
	}
}

// TestSparseGrowthHeadroom drives growing merges into an empty clock, one
// sorted stamp of new peers at a time, past growSmall words, beside the
// dense reference. A merge that fits the capacity keeps the array; one
// that does not gets a fresh array of the size class that holds need +
// need/8 + 8 words while the list is shorter than growSmall, and from
// there what append gives the old list. Every stamp the receiver emits is
// bit-identical to the reference's.
func TestSparseGrowthHeadroom(t *testing.T) {
	const n = 4096
	// class is the capacity the allocator's size class gives c words.
	class := func(c int) int { return cap(append([]uint32(nil), make([]uint32, c)...)) }
	r := stats.NewRNG(41)
	peers := make([]int, n-1) // proc-1 of each peer, in order of first sighting
	for i := range peers {    // inside-out Fisher–Yates
		j := r.Intn(i + 1)
		peers[i], peers[j] = peers[j], i
	}
	peers = peers[:700]
	sparse, dense := NewSparseStrobeVector(0, n), NewDiffStrobeVector(0, n)
	grew := map[bool]int{} // grows by whether the list was below growSmall
	for len(peers) > 0 {
		st := make(SparseStamp, 0, 40)
		for _, p := range peers[:min(1+r.Intn(40), len(peers))] {
			st = append(st, SparseEntry{Proc: p + 1, Val: uint64(1 + r.Intn(9))})
		}
		peers = peers[len(st):]
		slices.SortFunc(st, func(a, b SparseEntry) int { return a.Proc - b.Proc })

		old := sparse.comps
		need := len(old) + len(st)
		dense.OnStrobe(st)
		sparse.OnStrobe(st)
		got := sparse.comps
		switch {
		case need <= cap(old):
			if cap(got) != cap(old) || &got[0] != &old[:1][0] {
				t.Fatalf("%d → %d words within capacity %d: moved to a new array of %d", len(old), need, cap(old), cap(got))
			}
		case len(old) < growSmall:
			grew[true]++
			if want := class(need + need/8 + 8); cap(got) != want {
				t.Fatalf("%d → %d words: capacity %d, want %d (need + need/8 + 8, by size class)", len(old), need, cap(got), want)
			}
		default:
			grew[false]++
			if want := cap(append(make([]uint32, len(old), cap(old)), make([]uint32, len(st))...)); cap(got) != want {
				t.Fatalf("%d → %d words: capacity %d, want append's %d", len(old), need, cap(got), want)
			}
		}
		if len(got) != need {
			t.Fatalf("%d words after merging %d new peers into %d", len(got), len(st), len(old))
		}
		if ds, ss := dense.Strobe(), sparse.Strobe(); !reflect.DeepEqual(ds, ss) {
			t.Fatalf("at %d words: stamp diverged\ndense:  %v\nsparse: %v", need, ds, ss)
		}
	}
	if grew[true] < 3 || grew[false] < 2 {
		t.Errorf("grows below / from %d words: %d / %d; want at least 3 / 2", growSmall, grew[true], grew[false])
	}
	if dv, sv := dense.Snapshot(), sparse.Snapshot(); !slices.Equal(dv, sv) {
		t.Errorf("final snapshot diverged")
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

// TestStrobeIntoReusesRoom: StrobeInto writes the stamp Strobe would
// return into dst's array when dst has room — stale entries past the
// stamp's length or in its slots included — and otherwise allocates a
// fresh exact-size one, leaving dst as it was.
func TestStrobeIntoReusesRoom(t *testing.T) {
	a, b := NewSparseStrobeVector(5, 64), NewSparseStrobeVector(5, 64)
	junk := SparseEntry{Proc: 63, Val: 99}
	dst := SparseStamp{junk, junk, junk, junk}
	for step, in := range []SparseStamp{
		{{Proc: 9, Val: 3}, {Proc: 2, Val: 1}}, // three dirty words with the own: fits in 4
		nil,                                    // the own alone
		{{Proc: 1, Val: 1}, {Proc: 2, Val: 4}, {Proc: 7, Val: 2}, {Proc: 9, Val: 5}, {Proc: 60, Val: 1}}, // six: does not fit
	} {
		a.OnStrobe(in)
		b.OnStrobe(in)
		want := a.Strobe()
		got := b.StrobeInto(dst)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: StrobeInto = %v, Strobe = %v", step, got, want)
		}
		fits := len(want) <= cap(dst)
		if reused := &got[0] == &dst[0]; reused != fits {
			t.Fatalf("step %d: a %d-entry stamp into a %d-cap dst reused it: %v", step, len(want), cap(dst), reused)
		}
		if !fits && slices.ContainsFunc(dst, func(e SparseEntry) bool { return e != junk }) {
			t.Fatalf("step %d: a dst too small for the stamp was written: %v", step, dst)
		}
		for i := range dst {
			dst[i] = junk
		}
	}
	if got := b.StrobeInto(nil); !reflect.DeepEqual(got, a.Strobe()) {
		t.Fatalf("StrobeInto(nil) = %v, want Strobe's stamp", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { dst = b.StrobeInto(dst) }); allocs != 0 {
		t.Errorf("a clean strobe into a 4-entry dst: %.1f allocs, want 0", allocs)
	}
}

// TestSparseOnStrobeIgnoresJunk: out-of-range procs and zero values are
// no-ops, matching the dense merge.
func TestSparseOnStrobeIgnoresJunk(t *testing.T) {
	s := NewSparseStrobeVector(0, 8)
	s.OnStrobe(SparseStamp{{Proc: -1, Val: 9}, {Proc: 8, Val: 9}, {Proc: 3, Val: 0}})
	if len(s.comps) != 0 {
		t.Fatalf("junk entries created components: %d", len(s.comps))
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
	if s.OwnClock() != 0 || len(s.comps) != 0 {
		t.Fatalf("Reset left state: own=%d peers=%d", s.OwnClock(), len(s.comps))
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
