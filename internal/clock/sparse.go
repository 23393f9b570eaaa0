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
// Each known non-own component is one word: the proc in the top
// bits.Len(n-1) bits, the merged value below it and, at bit 0, whether
// that value differs from the one at this process's last strobe (the
// differential baseline). The baseline itself is not stored: it is only
// ever compared with the value and only ever assigned the value (by
// Strobe), values only rise, and a new component starts from baseline 0
// with a value > 0 — so "value != baseline" is exactly "raised or
// inserted since the last Strobe", one bit. With the proc on top, words
// sort as their procs do, so finding a proc is comparing whole words
// against proc<<shift.
//
// A word is 32 bits wide while that leaves a value bit beside the proc
// and the dirty bit, and a clock starts narrow whenever it can. The first
// value a narrow word cannot hold widens the whole list, once, to 64-bit
// words (widen); the merge that met it restarts at the new width. The
// width is read off shift: above 32 the words are 64-bit.
type SparseStrobeVector struct {
	me    int32
	n     int32
	own   uint64
	comps []uint32 // proc<<shift | val<<1 | dirty, ascending; never me; vals never 0 (64-bit words when wide: see words)
	dirty int32    // how many comps have the dirty bit set: the next stamp's size less one
	shift uint8    // where the proc field starts: 32 - bits.Len(n-1), or 32 more when wide
}

// word is the width of a component word.
type word interface{ ~uint32 | ~uint64 }

// errValueBound is the panic for a component value no word can hold: one
// above 2^(63-bits.Len(n-1)) - 1, the 64-bit word's bound, at least
// 2^32 - 1 for any n that fits an int32. Values count sense events at one
// process.
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
// is dropped, and the words start narrow if 32 bits leave a value bit.
func (s *SparseStrobeVector) Init(me, n int) {
	if me < 0 || me >= n || n > math.MaxInt32 {
		panic("clock: process index out of range")
	}
	shift := 32 - bits.Len(uint(n-1))
	if shift < 2 {
		shift += 32
	}
	*s = SparseStrobeVector{me: int32(me), n: int32(n), shift: uint8(shift)}
}

// OwnClock returns the local component — the value a process reports as
// its own logical time without materializing a vector.
func (s *SparseStrobeVector) OwnClock() uint64 { return s.own }

// wide reports whether the words are 64-bit.
func (s *SparseStrobeVector) wide() bool { return s.shift > 32 }

// words and setWords are comps as W words, read and written. A narrow
// clock's array is a []uint32 and reads as itself. A wide clock's array
// was allocated as []uint64 (grow, from widen on): comps views it as
// twice as many uint32s, so reading it back as uint64s gives the words it
// was allocated with, 8-byte aligned and whole. No other array is ever
// read as uint64s. These are the package's only pointer conversions.
func words[W word](s *SparseStrobeVector) []W {
	per := int(unsafe.Sizeof(W(0)) / 4)
	return unsafe.Slice((*W)(unsafe.Pointer(unsafe.SliceData(s.comps))), cap(s.comps)/per)[:len(s.comps)/per]
}

func setWords[W word](s *SparseStrobeVector, ws []W) {
	per := int(unsafe.Sizeof(W(0)) / 4)
	s.comps = unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(ws))), cap(ws)*per)[:len(ws)*per]
}

// low is the mask of the bits below the proc field: value and dirty bit.
func low[W word](shift uint8) W { return W(1)<<shift - 1 }

// search returns the index of the first word in comps[lo:hi] not below
// key, as an index into comps (binary search).
func search[W word](comps []W, lo, hi int, key W) int {
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
func gallop[W word](comps []W, from int, key W) int {
	hi := from
	for step := 1; hi < len(comps) && comps[hi] < key; step <<= 1 {
		from = hi + 1
		hi += step
	}
	return search(comps, from, min(hi, len(comps)), key)
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
	if s.dirty == 0 {
		out[0] = SparseEntry{Proc: int(s.me), Val: s.own}
		return out
	}
	if s.wide() {
		stampDirty[uint64](s, out)
	} else {
		stampDirty[uint32](s, out)
	}
	s.dirty = 0
	return out
}

// stampDirty fills out with the dirty words of s, the own component in
// proc order among them, and clears their dirty bits.
func stampDirty[W word](s *SparseStrobeVector, out SparseStamp) {
	comps := words[W](s)
	below := search(comps, 0, len(comps), W(s.me)<<s.shift)
	k := take(comps[:below], out, 0, s.shift)
	out[k] = SparseEntry{Proc: int(s.me), Val: s.own}
	take(comps[below:], out, k+1, s.shift)
}

// take copies the dirty words of comps into out from slot k on, in order,
// clears their dirty bits and returns the next free slot. It stays out of
// line: inlined at its two calls its loop spilled to the stack, and
// BenchmarkStrobeSparseFleet/long read ≈ 3.9 µs against ≈ 2.8 µs (one
// core of a 2-vCPU Xeon).
//
//go:noinline
func take[W word](comps []W, out SparseStamp, k int, shift uint8) int {
	mask := low[W](shift)
	for i, w := range comps {
		if w&1 != 0 {
			out[k] = SparseEntry{Proc: int(w >> shift), Val: uint64(w & mask >> 1)}
			comps[i] = w &^ 1
			k++
		}
	}
	return k
}

// OnStrobe applies SVC2 to a sparse stamp: componentwise max over the
// carried entries, no local tick. Unknown components are inserted in
// sorted position; zero-valued entries are no-ops, as they are for the
// dense merge. Out-of-range entries are ignored. A narrow clock that
// meets a value its words cannot hold widens and goes on at 64 bits; a
// value above the 64-bit word's bound panics (errValueBound).
//
// A clock that knows every peer holds proc p's word at comps[p − [p > me]],
// so each entry is one max-update at that index, in stamp order. Any
// other clock merges the stamp one maximal strictly-ascending run at a
// time. A stamp from Strobe is a single run, so it costs one pass; an
// unsorted or duplicate-carrying stamp falls apart into runs of one, each
// merged on its own in stamp order. Either way it is the per-entry max,
// which no order changes — and which is idempotent, so the entries a
// narrow merge took before it widened are no-ops when the wide merge
// meets them again.
func (s *SparseStrobeVector) OnStrobe(st SparseStamp) {
	if !s.wide() {
		j := onStrobe[uint32](s, st)
		if j == len(st) {
			return
		}
		s.widen()
		st = st[j:]
	}
	if onStrobe[uint64](s, st) < len(st) {
		panic(errValueBound)
	}
}

// onStrobe is OnStrobe at one width. It returns len(st) once the stamp is
// merged, or else where the rest of it starts: the run, or in the
// knows-every-peer path the entry, that carries the first value a W word
// cannot hold.
func onStrobe[W word](s *SparseStrobeVector, st SparseStamp) int {
	mask := low[W](s.shift)
	if comps := words[W](s); len(comps) == int(s.n)-1 {
		me := int(s.me)
		for j, e := range st {
			i := e.Proc
			switch {
			case i > me:
				i--
			case i == me:
				s.own = max(s.own, e.Val)
				continue
			}
			if uint(i) >= uint(len(comps)) { // a proc below 0 or from n up is ignored
				continue
			}
			if e.Val > uint64(mask>>1) {
				return j
			}
			raise(s, comps, i, W(e.Val), mask)
		}
		return len(st)
	}
	for j := 0; j < len(st); {
		k := j + 1
		for k < len(st) && st[k].Proc > st[k-1].Proc {
			k++
		}
		if !mergeRun(s, st[j:k], mask) {
			return j
		}
		j = k
	}
	return len(st)
}

// widen converts the narrow words to 64-bit ones, in order, dirty bits
// kept: the proc field moves up 32 bits, value and dirty bit stay where
// they are. The array is grow's, at least as large in words as the
// narrow one, so the merge that restarts wide needs no more room than it
// did narrow.
func (s *SparseStrobeVector) widen() {
	narrow, shift := words[uint32](s), s.shift
	wide := grow([]uint64(nil), cap(narrow))[:len(narrow)]
	for i, w := range narrow {
		wide[i] = uint64(w>>shift)<<(shift+32) | uint64(w&low[uint32](shift))
	}
	setWords(s, wide)
	s.shift = shift + 32
}

// skips reports whether e cannot touch a non-own component: out of
// range, the local component, or the zero every absent component
// already is.
func (s *SparseStrobeVector) skips(e SparseEntry) bool {
	return e.Proc < 0 || e.Proc >= int(s.n) || e.Proc == int(s.me) || e.Val == 0
}

// raise max-updates comps[i] to val, marking it dirty if it was clean;
// the proc bits stay as they are. A zero or stale val leaves the word be.
// The caller has checked that the value bits below mask hold val.
func raise[W word](s *SparseStrobeVector, comps []W, i int, val, mask W) {
	if w := comps[i]; val<<1 > w&mask {
		comps[i] = w&^mask | val<<1 | 1
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
// [p<<shift, p<<shift | mask]. A value the bits below mask cannot hold
// ends the forward pass and reports false, with the new components not
// yet inserted; the hits before it stay raised.
func mergeRun[W word](s *SparseStrobeVector, run SparseStamp, mask W) bool {
	comps, shift := words[W](s), s.shift
	cur, misses := -1, 0
	for _, e := range run {
		if s.skips(e) {
			if e.Proc == int(s.me) {
				s.own = max(s.own, e.Val)
			}
			continue
		}
		if e.Val > uint64(mask>>1) {
			return false
		}
		key := W(e.Proc) << shift
		if cur < 0 {
			cur = search(comps, 0, len(comps), key)
		} else {
			cur = gallop(comps, cur, key)
		}
		if cur == len(comps) || comps[cur] > key|mask {
			misses++
			continue
		}
		raise(s, comps, cur, W(e.Val), mask)
		cur++ // the run ascends strictly: its next entry lies to the right
	}
	if misses == 0 {
		return true
	}
	r := len(comps) // comps[:r] are still to be placed
	out := grow(comps, r+misses)
	setWords(s, out)
	s.dirty += int32(misses)
	w := len(out) // out[w:] are final
	for j := len(run) - 1; w > r; j-- {
		e := run[j]
		if s.skips(e) {
			continue
		}
		key := W(e.Proc) << shift
		for r > 0 && comps[r-1] > key|mask {
			r--
			w--
			out[w] = comps[r]
		}
		if r > 0 && comps[r-1] >= key {
			continue // a hit, already merged by the forward pass
		}
		w--
		out[w] = key | W(e.Val)<<1 | 1
	}
	if r > 0 && &out[0] != &comps[0] {
		copy(out, comps[:r]) // the words below the lowest new one, unmoved
	}
	return true
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
// rounds it. The policy counts words, whatever their width.
func grow[W word](comps []W, need int) []W {
	if need <= cap(comps) {
		return comps[:need]
	}
	old, size := cap(comps), need
	if len(comps) < growSmall {
		old, size = 0, need+need/8+8 // from no capacity, append sizes exactly
	}
	return append(comps[:0:old], make([]W, size)...)[:need] //lint:allow hotpath(amortized growth: the component list grows with headroom for a stamp's new peers and then stabilizes at the contact-set size)
}

// Snapshot materializes the full dense vector. O(n) allocation — callers
// on hot paths should prefer OwnClock or the stamps themselves.
func (s *SparseStrobeVector) Snapshot() Vector {
	v := NewVector(int(s.n))
	v[s.me] = s.own //lint:allow clockrule(materializing a fresh dense copy of this clock for observers; the live sparse state is untouched)
	if s.wide() {
		snapshot(v, words[uint64](s), s.shift)
	} else {
		snapshot(v, words[uint32](s), s.shift)
	}
	return v
}

// snapshot writes the value of every word of comps into v at its proc.
func snapshot[W word](v Vector, comps []W, shift uint8) {
	mask := low[W](shift)
	for _, w := range comps {
		v[w>>shift] = uint64(w & mask >> 1) //lint:allow clockrule(same fresh-copy materialization as Snapshot's)
	}
}

// StateBytes is the resident footprint of the clock state: the struct
// itself plus the component array it owns, as the compiler lays them out
// (a wide clock's comps views its 64-bit words as twice as many 32-bit
// ones, so the product holds at either width).
func (s *SparseStrobeVector) StateBytes() int {
	return int(unsafe.Sizeof(*s)) + cap(s.comps)*int(unsafe.Sizeof(s.comps[0]))
}
