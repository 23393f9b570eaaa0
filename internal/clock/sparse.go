package clock

import (
	"math"
	"math/bits"
	"unsafe"
)

// Sparse strobe vectors complete the Singhal–Kshemkalyani adaptation: the
// wire format has been sparse since the differential clock landed, and
// the *local* state is sparse too. Two dense p-length vectors per process
// (p processes × O(p) words each = O(p²) memory system-wide) would cap
// the system size; SparseStrobeVector stores only the components this
// process has actually heard of — O(active peers), not O(p) — as sorted
// words packing proc, value and a changed-since-last-strobe bit. In a
// neighborhood-scoped deployment a sensor hears from its radio neighbors
// plus the checker, so active peers is bounded by the degree, independent
// of p.
//
// The representation is exact, not approximate: an absent component is
// exactly the dense clock's zero. It is the one production vector strobe
// at every system size; the dense differential clock, two p-vectors and a
// diff, lives on as the tests' reference, and the equivalence tests drive
// both through identical rule sequences and require identical stamps.

// SparseStrobeVector is a strobe vector clock with differential broadcast
// and O(active peers) local state: the SVC1/SVC2 rules, with each stamp
// carrying exactly the components that changed since the previous one.
//
// Each known non-own component is one 64-bit word: the proc in the top
// bits.Len(n-1) bits, the merged value below it and, at bit 0, whether
// that value differs from the one at this process's last strobe (the
// differential baseline). The baseline itself is not stored: it is only
// ever compared with the value and only ever assigned the value (by
// Strobe), values only rise, and a new component starts from baseline 0
// with a value > 0 — so "value != baseline" is exactly "raised or
// inserted since the last Strobe", one bit. With the proc on top, words
// sort as their procs do, so finding a proc is comparing whole words
// against proc<<shift.
type SparseStrobeVector struct {
	me    int32
	n     int32
	own   uint64
	comps []uint64 // proc<<shift | val<<1 | dirty, ascending; never me; vals never 0
	dirty int32    // how many comps have the dirty bit set: the next stamp's size less one
	shift uint8    // 64 - bits.Len(n-1): where the proc field starts
}

// errValueBound is the panic for a component value the packed word cannot
// hold: one above 2^(63-bits.Len(n-1)) - 1, at least 2^32 - 1 for any n
// that fits an int32. Values count sense events at one process.
const errValueBound = "clock: component value above the sparse clock's 2^(63-bits.Len(n-1))-1 bound"

// NewSparseStrobeVector returns process me's sparse differential strobe
// clock in an n-process system.
func NewSparseStrobeVector(me, n int) *SparseStrobeVector {
	s := new(SparseStrobeVector)
	s.Init(me, n)
	return s
}

// Init makes s process me's fresh clock in an n-process system, in place:
// the form for an owner that embeds the clock by value (a sensor slab) and
// re-creates it on a reboot. Any previous state, backing array included,
// is dropped.
func (s *SparseStrobeVector) Init(me, n int) {
	if me < 0 || me >= n || n > math.MaxInt32 {
		panic("clock: process index out of range")
	}
	*s = SparseStrobeVector{me: int32(me), n: int32(n), shift: uint8(64 - bits.Len(uint(n-1)))}
}

// OwnClock returns the local component — the value a process reports as
// its own logical time without materializing a vector.
func (s *SparseStrobeVector) OwnClock() uint64 { return s.own }

// low is the mask of the bits below the proc field: value and dirty bit.
func (s *SparseStrobeVector) low() uint64 { return 1<<s.shift - 1 }

// search returns the index of the first word in comps[lo:hi] not below
// key, as an index into comps (binary search).
func search(comps []uint64, lo, hi int, key uint64) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if comps[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// gallop returns the index of the first word in comps[from:] not below
// key, as an index into comps: doubling steps from from bracket it, a
// binary search inside the bracket places it. The cost is logarithmic in
// the distance moved, not in len(comps) — what makes a sorted stamp one
// forward pass.
func gallop(comps []uint64, from int, key uint64) int {
	lo, hi := from, from
	for step := 1; hi < len(comps) && comps[hi] < key; step <<= 1 {
		lo = hi + 1
		hi += step
	}
	return search(comps, lo, min(hi, len(comps)), key)
}

// Strobe applies SVC1 and returns the sparse diff to broadcast: every
// component that changed since this process's previous strobe, in proc
// order, always including the freshly ticked local component. The stamp
// is its one allocation, at the exact size the dirty count gives (see
// StrobeInto).
func (s *SparseStrobeVector) Strobe() SparseStamp { return s.StrobeInto(nil) }

// StrobeInto is Strobe writing the stamp into dst's backing array: when
// dst has room for it, the stamp is dst resliced and costs no allocation;
// otherwise it is a fresh exact-size array, as Strobe's is. It is the form
// for a sender that recycles the previous stamp of a dead strobe. The
// stamp is filled by index: the dirty words below the own proc, the own
// component, the dirty words above it. With nothing dirty there is no walk
// at all.
func (s *SparseStrobeVector) StrobeInto(dst SparseStamp) SparseStamp {
	// SVC1: tick the own component.
	s.own++
	out := dst[:0]
	if n := 1 + int(s.dirty); cap(out) >= n {
		out = out[:n]
	} else {
		out = make(SparseStamp, n) //lint:allow hotpath(the exact-size fallback when the recycled stamp is too small, or there is none: the dirty count sizes it, so a strobe allocates at most this once)
	}
	own := SparseEntry{Proc: int(s.me), Val: s.own}
	if s.dirty == 0 {
		out[0] = own
		return out
	}
	below := search(s.comps, 0, len(s.comps), uint64(s.me)<<s.shift)
	k := s.take(s.comps[:below], out, 0)
	out[k] = own
	s.take(s.comps[below:], out, k+1)
	s.dirty = 0
	return out
}

// take copies the dirty words of comps into out from slot k on, in order,
// clears their dirty bits and returns the next free slot. It stays out of
// line: inlined at StrobeInto's two calls its loop spilled to the stack, and
// BenchmarkStrobeSparseFleet/long read ≈ 3.9 µs against ≈ 2.8 µs (one
// core of a 2-vCPU Xeon).
//
//go:noinline
func (s *SparseStrobeVector) take(comps []uint64, out SparseStamp, k int) int {
	shift, low := s.shift, s.low()
	for i, w := range comps {
		if w&1 != 0 {
			out[k] = SparseEntry{Proc: int(w >> shift), Val: w & low >> 1}
			comps[i] = w &^ 1
			k++
		}
	}
	return k
}

// OnStrobe applies SVC2 to a sparse stamp: componentwise max over the
// carried entries, no local tick. Unknown components are inserted in
// sorted position; zero-valued entries are no-ops, as they are for the
// dense merge. Out-of-range entries are ignored. A value above the
// packed word's bound panics (errValueBound).
//
// A clock that knows every peer holds proc p's word at comps[p − [p > me]],
// so each entry is one max-update at that index, in stamp order. Any
// other clock merges the stamp one maximal strictly-ascending run at a
// time. A stamp from Strobe is a single run, so it costs one pass; an
// unsorted or duplicate-carrying stamp falls apart into runs of one, each
// merged on its own in stamp order. Either way it is the per-entry max,
// which no order changes.
func (s *SparseStrobeVector) OnStrobe(st SparseStamp) {
	if len(s.comps) == int(s.n)-1 {
		low, me := s.low(), int(s.me)
		for _, e := range st {
			i := e.Proc
			switch {
			case i > me:
				i--
			case i == me:
				s.own = max(s.own, e.Val)
				continue
			}
			if uint(i) < uint(len(s.comps)) { // a proc below 0 or from n up is ignored
				s.raise(i, e.Val, low)
			}
		}
		return
	}
	for len(st) > 0 {
		k := 1
		for k < len(st) && st[k].Proc > st[k-1].Proc {
			k++
		}
		s.mergeRun(st[:k])
		st = st[k:]
	}
}

// skips reports whether e cannot touch a non-own component: out of
// range, the local component, or the zero every absent component
// already is.
func (s *SparseStrobeVector) skips(e SparseEntry) bool {
	return e.Proc < 0 || e.Proc >= int(s.n) || e.Proc == int(s.me) || e.Val == 0
}

// raise max-updates comps[i] to val, marking it dirty if it was clean;
// the proc bits stay as they are. A zero or stale val leaves the word be,
// and a val above the packed word's bound panics (errValueBound).
func (s *SparseStrobeVector) raise(i int, val, low uint64) {
	if w := s.comps[i]; val > w&low>>1 {
		if val > low>>1 {
			panic(errValueBound)
		}
		s.comps[i] = w&^low | val<<1 | 1
		if w&1 == 0 {
			s.dirty++
		}
	}
}

// mergeRun merges one strictly-ascending run of entries. Forward pass:
// a cursor that only moves right max-updates the components the run
// hits and counts the ones it misses. Only if there were misses, the
// list takes that many more words — in place if its capacity holds them,
// else in a fresh array (see grow) — and a backward pass moves each
// surviving component at most once while dropping the new ones into
// place. A component of proc p is the one word in
// [p<<shift, p<<shift | low].
func (s *SparseStrobeVector) mergeRun(run SparseStamp) {
	comps := s.comps
	low := s.low()
	cur, misses := -1, 0
	for _, e := range run {
		if s.skips(e) {
			if e.Proc == int(s.me) {
				s.own = max(s.own, e.Val)
			}
			continue
		}
		key := uint64(e.Proc) << s.shift
		if cur < 0 {
			cur = search(comps, 0, len(comps), key)
		} else {
			cur = gallop(comps, cur, key)
		}
		if cur == len(comps) || comps[cur] > key|low {
			if e.Val > low>>1 {
				panic(errValueBound)
			}
			misses++
			continue
		}
		s.raise(cur, e.Val, low)
		cur++ // the run ascends strictly: its next entry lies to the right
	}
	if misses == 0 {
		return
	}
	r := len(comps) // comps[:r] are still to be placed
	out := grow(comps, r+misses)
	s.comps = out
	s.dirty += int32(misses)
	w := len(out) // out[w:] are final
	for j := len(run) - 1; w > r; j-- {
		e := run[j]
		if s.skips(e) {
			continue
		}
		key := uint64(e.Proc) << s.shift
		for r > 0 && comps[r-1] > key|low {
			r--
			w--
			out[w] = comps[r]
		}
		if r > 0 && comps[r-1] >= key {
			continue // a hit, already merged by the forward pass
		}
		w--
		out[w] = key | e.Val<<1 | 1
	}
	if r > 0 && &out[0] != &comps[0] {
		copy(out, comps[:r]) // the words below the lowest new one, unmoved
	}
}

// growSmall is the list length below which grow leaves headroom.
const growSmall = 256

// grow returns comps extended to need words. Within capacity that is
// comps itself. Otherwise it is a fresh array whose contents are left to
// the caller — append over an empty prefix copies nothing — sized as
// append sizes it from growSmall words up, and below that to hold need +
// need/8 + 8 words: room for about one more stamp's new peers, where
// append, sizing exactly whenever it must more than double, would
// reallocate a short list on nearly every stamp that names one. Either
// way the capacity is rounded up to the allocator's size class, as append
// rounds it.
func grow(comps []uint64, need int) []uint64 {
	if need <= cap(comps) {
		return comps[:need]
	}
	old, size := cap(comps), need
	if len(comps) < growSmall {
		old, size = 0, need+need/8+8 // from no capacity, append sizes exactly
	}
	return append(comps[:0:old], make([]uint64, size)...)[:need] //lint:allow hotpath(amortized growth: the component list grows with headroom for a stamp's new peers and then stabilizes at the contact-set size)
}

// Snapshot materializes the full dense vector. O(n) allocation — callers
// on hot paths should prefer OwnClock or the stamps themselves.
func (s *SparseStrobeVector) Snapshot() Vector {
	v := NewVector(int(s.n))
	v[s.me] = s.own //lint:allow clockrule(materializing a fresh dense copy of this clock for observers; the live sparse state is untouched)
	low := s.low()
	for _, w := range s.comps {
		v[w>>s.shift] = w & low >> 1 //lint:allow clockrule(same fresh-copy materialization as above)
	}
	return v
}

// StateBytes is the resident footprint of the clock state: the struct
// itself plus the component array it owns, as the compiler lays them out.
func (s *SparseStrobeVector) StateBytes() int {
	return int(unsafe.Sizeof(*s)) + cap(s.comps)*int(unsafe.Sizeof(uint64(0)))
}
