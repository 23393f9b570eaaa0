package clock

import (
	"math/bits"
	"reflect"
	"slices"
	"testing"

	"pervasive/internal/stats"
)

// What one decoded stamp entry is to the receiver at the moment it is
// merged, judged against the dense reference. The tallies prove the
// fixed-seed draw reaches every case the merge has to get right.
const (
	entryNegative = iota // proc < 0
	entryBeyond          // proc >= n
	entryOwn             // the receiver's own proc
	entryZero            // value 0: a no-op whether or not the proc is known
	entryNew             // first sighting of the proc
	entryRaise           // known proc, larger value
	entryEqual           // known proc, same value: must not mark it changed
	entryStale           // known proc, smaller value
	entryRepeat          // proc already named earlier in this stamp
	entryDescent         // proc below its predecessor's: a run boundary
	entryAllKnown        // the receiver knows every peer: the direct-index merge
	entryCases
)

// A procSpace is what one run of sparseVsDense can name. The sparse clock
// lives in an n-process system; its dense twin runs compacted, process c
// standing for proc ids[c] (ids nil: for c itself, the narrow mode), so a
// fleet-width n costs the reference only len(ids) components. Stamps name
// compact procs in [-pad, k+pad), k the twin's size; the ones outside
// [0, k) stay outside [0, n) on the sparse side, in order. Values are
// drawn in [0, 32) and, when top is set, also in (top-32, top]: top is
// the largest value the packed word holds.
type procSpace struct {
	n   int
	ids []int
	pad int
	top uint64
}

// k is the dense twin's system size.
func (ps procSpace) k() int {
	if ps.ids == nil {
		return ps.n
	}
	return len(ps.ids)
}

// wide maps a compact proc to the sparse clock's proc.
func (ps procSpace) wide(c int) int {
	switch {
	case ps.ids == nil || c < 0:
		return c
	case c >= len(ps.ids):
		return ps.n + c - len(ps.ids)
	}
	return ps.ids[c]
}

// wideSpace draws k procs scattered over an n-process system, 0 and n-1
// always among them, so the proc field's top bits are exercised.
func wideSpace(r *stats.RNG, n, k int) procSpace {
	set := map[int]bool{0: true, n - 1: true}
	for len(set) < min(k, n) {
		set[r.Intn(n)] = true
	}
	ids := make([]int, 0, len(set))
	for p := range set {
		ids = append(ids, p)
	}
	slices.Sort(ids)
	return procSpace{n: n, ids: ids, pad: 1, top: 1<<(63-bits.Len(uint(n-1))) - 1}
}

// sparseVsDense decodes ops into an interleaving of Strobe() calls and
// arbitrary stamps, drives the SparseStrobeVector of proc ps.wide(me)
// and its compacted DiffStrobeVector twin of process me through it side
// by side, and after every step demands identical stamps and OwnClock,
// and the sparse words — decoded by the documented layout, not by the
// clock's own code — equal to the twin's components and keeping the
// state's invariants. Snapshot, O(n), is compared once at the end and in
// the narrow mode only; TestSparseValueBound holds it at fleet widths.
// Each op is one byte b: b&3 == 0 strobes; anything else delivers a
// stamp of b>>2 entries, three bytes each — a little-endian compact proc
// and a value byte v: v&31, or top - v&31 when top is set and v&32 is, so that equal
// and stale values are common. b&3 == 1 delivers the entries as decoded
// (any order, duplicates and all); 2 and 3 sort them by proc first, the
// shape Strobe() emits, except that equal procs still split the run.
func sparseVsDense(t *testing.T, ps procSpace, me int, ops []byte) (seen [entryCases]int) {
	t.Helper()
	k, width := ps.k(), bits.Len(uint(ps.n-1))
	sparse, dense := NewSparseStrobeVector(ps.wide(me), ps.n), NewDiffStrobeVector(me, k)
	widen := func(st SparseStamp) SparseStamp {
		out := make(SparseStamp, len(st))
		for i, e := range st {
			out[i] = SparseEntry{Proc: ps.wide(e.Proc), Val: e.Val}
		}
		return out
	}
	for step := 0; len(ops) > 0; step++ {
		op := ops[0]
		ops = ops[1:]
		if op&3 == 0 {
			if ds, ss := widen(dense.Strobe()), sparse.Strobe(); !reflect.DeepEqual(ds, ss) {
				t.Fatalf("step %d: stamp diverged\ndense:  %v\nsparse: %v", step, ds, ss)
			}
		} else {
			st := make(SparseStamp, min(int(op>>2), len(ops)/3))
			for i := range st {
				v := uint64(ops[2] & 31)
				if ps.top != 0 && ops[2]&32 != 0 {
					v = ps.top - v
				}
				st[i] = SparseEntry{Proc: (int(ops[0])|int(ops[1])<<8)%(k+2*ps.pad) - ps.pad, Val: v}
				ops = ops[3:]
			}
			if op&3 != 1 {
				slices.SortStableFunc(st, func(a, b SparseEntry) int { return a.Proc - b.Proc })
			}
			classify(&seen, dense.Snapshot(), me, ps.n-1, st)
			dense.OnStrobe(st)
			sparse.OnStrobe(widen(st))
		}
		if dense.OwnClock() != sparse.OwnClock() {
			t.Fatalf("step %d: own clock dense=%d sparse=%d", step, dense.OwnClock(), sparse.OwnClock())
		}
		dv, known, dirty := dense.Snapshot(), 0, 0
		for c, v := range dv {
			if c != me && v != 0 {
				known++
			}
		}
		for i, w := range sparse.comps {
			proc, val := int(w>>(64-width)), w<<width>>(width+1)
			c, ok := slices.BinarySearch(ps.ids, proc)
			if ps.ids == nil {
				c, ok = proc, true
			}
			if val == 0 || c == me || !ok || i > 0 && sparse.comps[i-1]>>(64-width) >= w>>(64-width) {
				t.Fatalf("step %d: word %d (proc %d, value %d) of %x is zero, own, unnamed or out of order",
					step, i, proc, val, sparse.comps)
			}
			if val != dv[c] {
				t.Fatalf("step %d: proc %d holds %d, the dense twin %d", step, proc, val, dv[c])
			}
			dirty += int(w & 1)
		}
		if len(sparse.comps) != known {
			t.Fatalf("step %d: %d components, the dense twin knows %d", step, len(sparse.comps), known)
		}
		if dirty != sparse.dirty {
			t.Fatalf("step %d: dirty count %d, but %d components are dirty", step, sparse.dirty, dirty)
		}
	}
	if ps.ids == nil {
		if dv, sv := dense.Snapshot(), sparse.Snapshot(); !slices.Equal(dv, sv) {
			t.Fatalf("final snapshot diverged\ndense:  %v\nsparse: %v", dv, sv)
		}
	}
	return seen
}

// classify tallies what each entry of st is to a receiver whose merged
// knowledge is v, replaying the merge on v (a scratch snapshot), in a
// system where the receiver has peers peers.
func classify(seen *[entryCases]int, v Vector, me, peers int, st SparseStamp) {
	named := map[int]bool{}
	known := 0
	for c, x := range v {
		if c != me && x != 0 {
			known++
		}
	}
	for i, e := range st {
		if known == peers { // as the stamp arrives: the merge picks its path once
			seen[entryAllKnown]++
		}
		if i > 0 && e.Proc < st[i-1].Proc {
			seen[entryDescent]++
		}
		if named[e.Proc] {
			seen[entryRepeat]++
		}
		named[e.Proc] = true
		switch {
		case e.Proc < 0:
			seen[entryNegative]++
		case e.Proc >= len(v):
			seen[entryBeyond]++
		case e.Proc == me:
			seen[entryOwn]++
		case e.Val == 0:
			seen[entryZero]++
		case v[e.Proc] == 0:
			seen[entryNew]++
		case e.Val > v[e.Proc]:
			seen[entryRaise]++
		case e.Val == v[e.Proc]:
			seen[entryEqual]++
		default:
			seen[entryStale]++
		}
		v.MergeSparse(SparseStamp{e})
	}
}

// TestSparseSurvivesHostileStamps is the property at fixed seeds, narrow
// at n = 300 and at n ≤ 16, where the receiver comes to know every peer
// and merges by direct index, and at the width of a 65 536-sensor fleet:
// whatever a peer sends — descending, repeated, out-of-range, negative,
// own, zero, equal, stale, values up to the packed word's bound — the
// sparse clock stays the dense clock's twin and keeps its invariants.
func TestSparseSurvivesHostileStamps(t *testing.T) {
	draw := func(r *stats.RNG) []byte {
		ops := make([]byte, 400+r.Intn(3000))
		for i := range ops {
			ops[i] = byte(r.Intn(256))
		}
		return ops
	}
	// require demands every case below upto: a receiver at n = 300 or in
	// a fleet-wide system never hears of every peer, one at n ≤ 16 does.
	require := func(name string, seen [entryCases]int, upto int) {
		t.Logf("%s: entries by case: %v", name, seen)
		for c, k := range seen[:upto] {
			if k < 100 {
				t.Errorf("%s: the draw reached case %d only %d times", name, c, k)
			}
		}
	}

	r := stats.NewRNG(17)
	var seen [entryCases]int
	for trial := 0; trial < 150; trial++ {
		const n = 300
		for c, k := range sparseVsDense(t, procSpace{n: n, pad: 8}, r.Intn(n), draw(r)) {
			seen[c] += k
		}
	}
	require("narrow", seen, entryAllKnown)

	r, seen = stats.NewRNG(23), [entryCases]int{}
	for trial := 0; trial < 150; trial++ {
		n := 2 + r.Intn(15)
		for c, k := range sparseVsDense(t, procSpace{n: n, pad: 8}, r.Intn(n), draw(r)) {
			seen[c] += k
		}
	}
	require("n ≤ 16", seen, entryCases)

	r, seen = stats.NewRNG(19), [entryCases]int{}
	for trial := 0; trial < 150; trial++ {
		ps := wideSpace(r, 1<<16, 2+r.Intn(15))
		for c, k := range sparseVsDense(t, ps, r.Intn(len(ps.ids)), draw(r)) {
			seen[c] += k
		}
	}
	require("n = 65536", seen, entryAllKnown)
}

// FuzzSparseOnStrobe is the same body under the native fuzzer. A first
// byte below 128 picks the narrow mode: n = 2 + data[0], the receiver
// data[1] % n. From 128 up it picks the wide one: the proc field's width
// is 1 + (data[0]&127) % 20, data[1:4] place n within that width (up to
// 2^20), data[4] sets how many procs the stamps can name, and data[5]
// which of them receives; the procs are drawn from an RNG seeded with
// the header. The checked-in corpus in testdata/fuzz/FuzzSparseOnStrobe
// has one entry per hostile case (narrow, n = 16, me = 5), one for a
// sorted run that mixes hits and misses, all-known (n = 4: a receiver
// that learns every peer, then merges unsorted, repeated, own, stale and
// out-of-range entries by direct index), wide-n (n close to 2^20) and
// max-value (values at the bound, n = 65 536).
func FuzzSparseOnStrobe(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		if data[0] < 128 {
			n := 2 + int(data[0])
			sparseVsDense(t, procSpace{n: n, pad: 8}, int(data[1])%n, data[2:])
			return
		}
		if len(data) < 6 {
			return
		}
		half := 1 << (int(data[0]&127) % 20) // n-1 in [half, 2*half)
		n := half + 1 + (int(data[1])|int(data[2])<<8|int(data[3])<<16)%half
		var seed uint64
		for _, b := range data[:6] {
			seed = seed<<8 | uint64(b)
		}
		ps := wideSpace(stats.NewRNG(seed), n, 2+int(data[4])%15)
		sparseVsDense(t, ps, int(data[5])%len(ps.ids), data[6:])
	})
}
