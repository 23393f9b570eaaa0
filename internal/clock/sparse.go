package clock

import "unsafe"

// Sparse strobe vectors complete the Singhal–Kshemkalyani adaptation: the
// wire format has been sparse since the differential clock landed, but the
// *local* state was still two dense p-length vectors per process, which is
// what caps the system size (p processes × O(p) words each = O(p²) memory
// system-wide). SparseStrobeVector stores only the components this process
// has actually heard of — O(active peers), not O(p) — as sorted (proc,
// val) pairs, each with a changed-since-last-strobe bit. In a
// neighborhood-scoped deployment a sensor hears from its radio neighbors
// plus the checker, so active peers is bounded by the degree, independent
// of p.
//
// The representation is exact, not approximate: an absent component is
// exactly the dense clock's zero. The equivalence tests drive both
// representations through identical rule sequences and require identical
// stamps, so `NewVectorState` can pick by density without changing any
// observable behaviour.

// sparseComp is one known non-own component: its current merged value
// and whether that value differs from the one at this process's last
// strobe (the differential baseline). The baseline itself is not stored:
// it is only ever compared with val and only ever assigned val (by
// Strobe), val only rises, and a new component starts from baseline 0
// with val > 0 — so "val != baseline" is exactly "raised or inserted
// since the last Strobe", one bit in the padding after proc.
type sparseComp struct {
	proc  int32
	dirty bool
	val   uint64
}

// SparseStrobeVector is a strobe vector clock with differential broadcast
// and O(active peers) local state. It follows the same SVC1/SVC2 rules as
// DiffStrobeVector and emits byte-identical stamps.
type SparseStrobeVector struct {
	me    int
	n     int
	own   uint64
	comps []sparseComp // sorted by proc; never contains me; vals never 0
	dirty int          // how many comps have dirty set: the next stamp's size less one
}

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
	if me < 0 || me >= n {
		panic("clock: process index out of range")
	}
	*s = SparseStrobeVector{me: me, n: n}
}

// Me returns the owning process index.
func (s *SparseStrobeVector) Me() int { return s.me }

// OwnClock returns the local component — the value a process reports as
// its own logical time without materializing a vector.
func (s *SparseStrobeVector) OwnClock() uint64 { return s.own }

// search returns the insertion index of proc within comps[lo:hi], as an
// index into comps (binary search).
func search(comps []sparseComp, lo, hi, proc int) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(comps[mid].proc) < proc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// gallop returns the insertion index of proc within comps[from:], as an
// index into comps: doubling steps from from bracket it, a binary search
// inside the bracket places it. The cost is logarithmic in the distance
// moved, not in len(comps) — what makes a sorted stamp one forward pass.
func gallop(comps []sparseComp, from, proc int) int {
	lo, hi := from, from
	for step := 1; hi < len(comps) && int(comps[hi].proc) < proc; step <<= 1 {
		lo = hi + 1
		hi += step
	}
	return search(comps, lo, min(hi, len(comps)), proc)
}

// Strobe applies SVC1 and returns the sparse diff to broadcast: every
// component that changed since this process's previous strobe, in proc
// order, always including the freshly ticked local component — exactly
// the stamp DiffStrobeVector emits. One exact-size allocation, sized by
// the dirty count; with nothing dirty there is no walk at all.
func (s *SparseStrobeVector) Strobe() SparseStamp {
	s.own++ // SVC1
	out := make(SparseStamp, 0, 1+s.dirty)
	own := SparseEntry{Proc: s.me, Val: s.own}
	if s.dirty == 0 {
		return append(out, own)
	}
	placedOwn := false
	for i := range s.comps {
		c := &s.comps[i]
		if !c.dirty {
			continue
		}
		if !placedOwn && int(c.proc) > s.me {
			out = append(out, own)
			placedOwn = true
		}
		out = append(out, SparseEntry{Proc: int(c.proc), Val: c.val})
		c.dirty = false
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
// dense merge. Out-of-range entries are ignored.
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
	return e.Proc < 0 || e.Proc >= s.n || e.Proc == s.me || e.Val == 0
}

// mergeRun merges one strictly-ascending run of entries. Forward pass:
// a cursor that only moves right max-updates the components the run
// hits and counts the ones it misses. Only if there were misses, the
// slice grows once by exactly that count and a backward pass shifts
// each surviving component at most once while dropping the new ones
// into place.
func (s *SparseStrobeVector) mergeRun(run SparseStamp) {
	comps := s.comps
	cur, misses := -1, 0
	for _, e := range run {
		if s.skips(e) {
			if e.Proc == s.me && e.Val > s.own {
				s.own = e.Val
			}
			continue
		}
		if cur < 0 {
			cur = search(comps, 0, len(comps), e.Proc)
		} else {
			cur = gallop(comps, cur, e.Proc)
		}
		if cur == len(comps) || int(comps[cur].proc) != e.Proc {
			misses++
			continue
		}
		if c := &comps[cur]; e.Val > c.val {
			c.val = e.Val
			if !c.dirty {
				c.dirty = true
				s.dirty++
			}
		}
		cur++ // the run ascends strictly: its next entry lies to the right
	}
	if misses == 0 {
		return
	}
	r := len(comps)                                      // comps[:r] are still to be placed
	comps = append(comps, make([]sparseComp, misses)...) //lint:allow hotpath(amortized growth: the component list grows once per stamp that names a newly-seen proc and then stabilizes at the contact-set size)
	s.comps = comps
	s.dirty += misses
	w := len(comps) // comps[w:] are final
	for j := len(run) - 1; w > r; j-- {
		e := run[j]
		if s.skips(e) {
			continue
		}
		for r > 0 && int(comps[r-1].proc) > e.Proc {
			r--
			w--
			comps[w] = comps[r]
		}
		if r > 0 && int(comps[r-1].proc) == e.Proc {
			continue // a hit, already merged by the forward pass
		}
		w--
		comps[w] = sparseComp{proc: int32(e.Proc), dirty: true, val: e.Val}
	}
}

// Snapshot materializes the full dense vector. O(n) allocation — callers
// on hot paths should prefer OwnClock or the stamps themselves.
func (s *SparseStrobeVector) Snapshot() Vector {
	v := NewVector(s.n)
	v[s.me] = s.own //lint:allow clockrule(materializing a fresh dense copy of this clock for observers; the live sparse state is untouched)
	for _, c := range s.comps {
		v[c.proc] = c.val //lint:allow clockrule(same fresh-copy materialization as above)
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
	return int(unsafe.Sizeof(*s)) + cap(s.comps)*int(unsafe.Sizeof(sparseComp{}))
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
