package clock

import (
	"math"
	"math/bits"
	"unsafe"
)

// Sparse strobe vectors complete the Singhal–Kshemkalyani adaptation: the
// wire format has been sparse since the differential clock landed, but the
// *local* state was still two dense p-length vectors per process, which is
// what caps the system size (p processes × O(p) words each = O(p²) memory
// system-wide). SparseStrobeVector stores only the components this process
// has actually heard of — O(active peers), not O(p) — as sorted words
// packing proc, value and a changed-since-last-strobe bit. In a
// neighborhood-scoped deployment a sensor hears from its radio neighbors
// plus the checker, so active peers is bounded by the degree, independent
// of p.
//
// The representation is exact, not approximate: an absent component is
// exactly the dense clock's zero. The equivalence tests drive both
// representations through identical rule sequences and require identical
// stamps, so `NewVectorState` can pick by density without changing any
// observable behaviour.

// SparseStrobeVector is a strobe vector clock with differential broadcast
// and O(active peers) local state. It follows the same SVC1/SVC2 rules as
// DiffStrobeVector and emits byte-identical stamps.
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
	dirty int      // how many comps have the dirty bit set: the next stamp's size less one
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

// Me returns the owning process index.
func (s *SparseStrobeVector) Me() int { return int(s.me) }

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
// order, always including the freshly ticked local component — exactly
// the stamp DiffStrobeVector emits. One exact-size allocation, sized by
// the dirty count; with nothing dirty there is no walk at all.
func (s *SparseStrobeVector) Strobe() SparseStamp {
	s.own++ // SVC1
	out := make(SparseStamp, 0, 1+s.dirty)
	own := SparseEntry{Proc: int(s.me), Val: s.own}
	if s.dirty == 0 {
		return append(out, own)
	}
	low := s.low()
	placedOwn := false
	for i, w := range s.comps {
		if w&1 == 0 {
			continue
		}
		proc := int(w >> s.shift)
		if !placedOwn && proc > int(s.me) {
			out = append(out, own)
			placedOwn = true
		}
		out = append(out, SparseEntry{Proc: proc, Val: w & low >> 1})
		s.comps[i] = w &^ 1
	}
	if !placedOwn {
		out = append(out, own)
	}
	s.dirty = 0
	return out
}

// OnStrobe applies SVC2 to a sparse stamp: componentwise max over the
// carried entries, no local tick. Unknown components are inserted in
// sorted position; zero-valued entries are no-ops, as they are for the
// dense merge. Out-of-range entries are ignored. A value above the
// packed word's bound panics (errValueBound).
//
// The stamp is merged one maximal strictly-ascending run at a time. A
// stamp from Strobe is a single run, so it costs one pass; an unsorted or
// duplicate-carrying stamp falls apart into runs of one, each merged on
// its own in stamp order — the per-entry semantics, by the same code.
func (s *SparseStrobeVector) OnStrobe(st SparseStamp) {
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

// mergeRun merges one strictly-ascending run of entries. Forward pass:
// a cursor that only moves right max-updates the components the run
// hits and counts the ones it misses. Only if there were misses, the
// slice grows once by exactly that count and a backward pass shifts
// each surviving component at most once while dropping the new ones
// into place. A component of proc p is the one word in
// [p<<shift, p<<shift | low].
func (s *SparseStrobeVector) mergeRun(run SparseStamp) {
	comps := s.comps
	low := s.low()
	cur, misses := -1, 0
	for _, e := range run {
		if s.skips(e) {
			if e.Proc == int(s.me) && e.Val > s.own {
				s.own = e.Val
			}
			continue
		}
		if e.Val > low>>1 {
			panic(errValueBound)
		}
		key := uint64(e.Proc) << s.shift
		if cur < 0 {
			cur = search(comps, 0, len(comps), key)
		} else {
			cur = gallop(comps, cur, key)
		}
		if cur == len(comps) || comps[cur] > key|low {
			misses++
			continue
		}
		if w := comps[cur]; e.Val<<1 > w&low {
			comps[cur] = key | e.Val<<1 | 1
			if w&1 == 0 {
				s.dirty++
			}
		}
		cur++ // the run ascends strictly: its next entry lies to the right
	}
	if misses == 0 {
		return
	}
	r := len(comps)                                  // comps[:r] are still to be placed
	comps = append(comps, make([]uint64, misses)...) //lint:allow hotpath(amortized growth: the component list grows once per stamp that names a newly-seen proc and then stabilizes at the contact-set size)
	s.comps = comps
	s.dirty += misses
	w := len(comps) // comps[w:] are final
	for j := len(run) - 1; w > r; j-- {
		e := run[j]
		if s.skips(e) {
			continue
		}
		key := uint64(e.Proc) << s.shift
		for r > 0 && comps[r-1] > key|low {
			r--
			w--
			comps[w] = comps[r]
		}
		if r > 0 && comps[r-1] >= key {
			continue // a hit, already merged by the forward pass
		}
		w--
		comps[w] = key | e.Val<<1 | 1
	}
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

// Reset zeroes the clock in place, releasing the component storage: the
// epoch-reset rule for a crashed-and-rejoining process.
func (s *SparseStrobeVector) Reset() {
	s.own = 0
	s.comps = nil
	s.dirty = 0
}

// ActivePeers returns how many non-own components this process has heard
// of — the quantity the O(active peers) memory claim is about.
func (s *SparseStrobeVector) ActivePeers() int { return len(s.comps) }

// StateBytes is the resident footprint of the clock state: the struct
// itself plus the component array it owns, as the compiler lays them out.
func (s *SparseStrobeVector) StateBytes() int {
	return int(unsafe.Sizeof(*s)) + cap(s.comps)*int(unsafe.Sizeof(uint64(0)))
}

// VectorState is the rule-method surface shared by the dense differential
// clock and the sparse sorted-pairs clock. Engines hold this interface so
// the representation is a capacity decision, not a protocol one.
type VectorState interface {
	Me() int
	// Strobe applies SVC1 and returns the differential stamp to broadcast.
	Strobe() SparseStamp
	// OnStrobe applies SVC2 to a received differential stamp.
	OnStrobe(SparseStamp)
	// Snapshot materializes the full dense vector (O(n); off the hot path).
	Snapshot() Vector
	// OwnClock returns the local component without materializing a vector.
	OwnClock() uint64
	// StateBytes estimates the resident footprint of the clock state.
	StateBytes() int
}

// DenseSparseCutoff is the system size above which NewVectorState picks
// the sparse representation: below it two dense n-vectors are at most a
// few KB and the flat arrays win on constant factors; above it the O(n)
// per-process state is what caps the system.
const DenseSparseCutoff = 128

// NewVectorState returns the density-appropriate strobe-vector state for
// process me of n: a fresh dense clock, or the sparse one initialised in
// place in sp — storage the caller owns, so a fleet of sparse clocks can
// live inside its sensors instead of one heap object each.
func NewVectorState(sp *SparseStrobeVector, me, n int) VectorState {
	if n <= DenseSparseCutoff {
		return NewDiffStrobeVector(me, n)
	}
	sp.Init(me, n)
	return sp
}
