// Level-synchronous lattice survey (Cooper–Marzullo style BFS).
//
// The recursive enumerator (Enumerate, retained as the
// differential-testing oracle) re-derives every cut from scratch with an
// O(n²) pairwise check and has to walk the whole lattice once per
// statistic. Survey replaces it on every hot path: it traverses the
// lattice of consistent cuts level by level from the empty cut,
// generating successors by advancing one process at a time, and
// validates each successor with an incremental check against the newly
// included event's precomputed knowledge row only — the rest of the cut
// was already consistent, and including one more event cannot retract
// the knowledge of events already in it.
//
// Correctness precondition: stamps must come from a genuine execution —
// per-process monotone (event k+1 knows at least what event k knew) with
// an acyclic knowledge relation between events. Every clock in this
// repository (causal vectors, strobe vectors, trimmed/clamped variants
// of either) satisfies this; under it, every consistent cut is reachable
// from the empty cut through consistent cuts, so the BFS visits exactly
// the set the oracle enumerates (proved on randomized executions by
// TestSurveyMatchesOracle).
//
// Canonical generation: a naive BFS reaches each cut once per event that
// can be removed from it, forcing a per-level deduplication pass. The
// packed engine avoids generating duplicates in the first place.
// Preprocessing computes a linear extension L of the knowledge relation
// (a greedy topological order over the constraint rows); every nonempty
// consistent cut D then has a unique L-maximal event e, and D − {e} is
// itself consistent (anything that knows e sits above it in L, so
// nothing in D − {e} does). Generating D only from that one predecessor
// — i.e. advancing process i on cut C only when C+eᵢ is consistent AND
// L(eᵢ) exceeds the L-rank of every event in C — visits each cut exactly
// once, with no dedup structure at all. By construction the newly added
// event is the L-maximum of the successor, so each frontier entry just
// carries its cut's max rank alongside the key; the rule is one integer
// compare.
//
// Representation: a cut is packed into a single uint64 whenever its
// per-process counters fit, process 0 in the most significant field so
// that ascending key order is lexicographic cut order; otherwise cuts
// fall back to fixed-width big-endian string keys with the same
// ordering (that fallback keeps the classic map-per-level dedup).
// When every field additionally affords one spare guard bit, the
// incremental check itself runs branch-free on the packed form: the
// event's knowledge row is prepacked into the same geometry and
// ((key|H) − req) & H == H holds iff every component of the cut meets
// the row (H = the guard-bit mask; a per-field borrow clears exactly the
// guard bits of violated fields). Frontier buffers are pooled scratch.
package lattice

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pervasive/internal/obs"
	"pervasive/internal/sim"
)

// obsReg is the optional metrics registry shared by all Survey calls;
// the lattice engine is process-wide infrastructure, so its
// instrumentation is too (same pattern as internal/runner).
var obsReg atomic.Pointer[obs.Registry]

// SetObs installs the registry Survey reports into: counters
// lattice.surveys, lattice.cuts (cuts visited), lattice.expanded (cuts
// whose successors were generated) and lattice.dedup_hits (duplicate
// successors merged — always zero for the packed engine, whose
// canonical generation never produces duplicates; nonzero only on the
// string-key fallback), the lattice.frontier gauge (peak frontier size
// via its high-watermark), and one span.lattice.survey histogram entry
// per traversal in wall-clock µs. SetObs(nil) detaches.
func SetObs(r *obs.Registry) { obsReg.Store(r) }

// epoch anchors the engine's wall-clock span timestamps.
var epoch = time.Now() //lint:allow determinism(span-epoch anchor: wall-clock timings feed obs spans only, never survey results)

func wallNow() sim.Time { return sim.Time(time.Since(epoch).Microseconds()) } //lint:allow determinism(span-epoch arithmetic: timestamps feed obs spans only, never survey results)

// forceStringKeys disables the packed-uint64 fast path; tests set it to
// run the differential suite against the fallback representation too.
var forceStringKeys = false

// SurveyOptions configures one lattice traversal.
type SurveyOptions struct {
	// Limit stops the survey after visiting this many consistent cuts
	// (≤ 0 means no limit), mirroring CountConsistent's limit.
	Limit int64
	// Visit, if non-nil, is called for every consistent cut in
	// deterministic order: level by level, lexicographic within a level.
	// The slice is reused between calls; clone it to retain. Returning
	// false stops the survey.
	Visit func(cut []int) bool
}

// SurveyResult carries every lattice statistic from a single traversal.
type SurveyResult struct {
	// Count is the number of consistent cuts visited.
	Count int64
	// LevelSizes[ℓ] is the number of consistent cuts with exactly ℓ
	// included events; its maximum is the lattice width.
	LevelSizes []int64
	// Width is the size of the largest level (1 = the Δ=0 chain).
	Width int64
	// Truncated reports that the survey stopped early — the limit was
	// reached or the visitor returned false — so Count, LevelSizes and
	// Width describe only the visited prefix.
	Truncated bool
}

// prow is one padded requirement-table entry of the branch-free packed
// engine: the event's knowledge row in key geometry next to its
// linear-extension rank, so the expansion loop touches one cache line
// per direction.
type prow struct {
	req uint64 // packed requirement row (guard-bit geometry)
	rn  uint32 // L-rank of the row's event (0 on the sentinel slot)
	_   uint32
}

// fent is one packed frontier entry: the cut key tagged with the L-rank
// of the cut's maximal event (0 for the empty cut). Canonical
// generation only ever advances with events ranked above mr, and the
// added event becomes the successor's maximum, so mr is maintained by
// plain assignment.
type fent struct {
	key uint64
	mr  uint32
	_   uint32
}

// surveyPrep is the immutable, shareable preprocessing of an execution:
// packing geometry, the per-event constraint rows — sparse (pairs) and
// branch-free packed (prows) forms — and the linear-extension ranks
// that drive canonical generation. It is built once per Execution
// (cached; see Execution.prep) and only read thereafter, so concurrent
// Survey calls on one Execution share it.
type surveyPrep struct {
	n      int
	lens   []int // events per process
	base   []int // base[i]: flat index of process i's event 0
	offs   []int32
	pairs  []uint64   // sparse constraints (j<<32 | minCount), offs-indexed
	rank   []uint32   // L-rank per flat event, 1-based (0 = never includable)
	packed bool       // cuts fit a single uint64
	swar   bool       // fields have a guard bit: branch-free packed check
	bits   uint       // packed field width (value bits, +1 guard if swar)
	mask   uint64     // field mask
	hmask  uint64     // guard-bit mask H (swar only)
	prows  []prow     // packed rows + per-proc sentinel (swar)
	rowOff []uint64   // prows row starts, low-field-first: proc n-1, …, 0 (swar)
	delta  [32]uint64 // delta[t] = 1<<(t*bits): +1 in the t-th-lowest field (swar)
	shift  []uint     // shift[i] = (n-1-i)*bits: proc 0 in the high bits
}

// deadPair is an unsatisfiable sparse constraint marking an event that
// can never be included (its stamp claims more own events than its index
// allows, so no cut admits it).
const deadPair = uint64(math.MaxUint32)

// prep returns the execution's survey preprocessing, building and
// caching it on first use. The cache assumes Stamps are not mutated
// after the first lattice statistic is computed (every caller in this
// repository trims/clamps stamps before analysis). While tests force
// the string-key fallback the cache is bypassed in both directions, so
// a packed prep cached earlier cannot stand in for the fallback (or
// vice versa).
func (e *Execution) prep() *surveyPrep {
	if p := e.surveyPrep.Load(); p != nil && !forceStringKeys {
		return p
	}
	n := e.N()
	p := &surveyPrep{n: n, lens: make([]int, n), base: make([]int, n)}
	events := 0
	maxP := 0
	for i, stamps := range e.Stamps {
		p.lens[i] = len(stamps)
		p.base[i] = events
		events += len(stamps)
		if len(stamps) > maxP {
			maxP = len(stamps)
		}
	}
	p.offs = make([]int32, events+1)
	for i, stamps := range e.Stamps {
		for k, st := range stamps {
			ev := p.base[i] + k
			p.offs[ev] = int32(len(p.pairs))
			// Own component: the event claims to be its process's
			// st[i]-th; includable at index k only if st[i] ≤ k+1.
			// That is always true at check time, so no pair is stored —
			// unless it is violated outright, which kills the event.
			if i < len(st) && st[i] > uint64(k+1) {
				p.pairs = append(p.pairs, deadPair)
				continue
			}
			// Cross components: advancing requires comp[j] ≥ st[j]
			// before the advance. Zero components constrain nothing.
			for j := 0; j < n && j < len(st); j++ {
				if j != i && st[j] > 0 {
					p.pairs = append(p.pairs, uint64(j)<<32|st[j])
				}
			}
		}
	}
	p.offs[events] = int32(len(p.pairs))

	vb := uint(1) // value bits: smallest b with 1<<b > maxP
	for 1<<vb <= maxP {
		vb++
	}
	// The SWAR check needs one spare value per field (the unsatisfiable
	// sentinel) in addition to the guard bit: requirement fields must
	// stay below 1<<gb so the per-field subtraction never borrows across
	// fields.
	gb := vb
	for 1<<gb < maxP+2 {
		gb++
	}
	switch {
	case forceStringKeys || n == 0:
	case n*int(gb+1) <= 64:
		p.packed, p.swar, p.bits = true, true, gb+1
	case n*int(vb) <= 64:
		p.packed, p.bits = true, vb
	}
	if !p.packed {
		if !forceStringKeys {
			e.surveyPrep.Store(p)
		}
		return p
	}

	// Linear-extension ranks: a greedy topological placement over the
	// exact sparse rows. An event is placed as soon as everything it
	// knows is placed, so placement order is a valid linear extension of
	// the knowledge relation; under the engine's acyclicity precondition
	// the sweep places every includable event. Events it cannot place
	// (dead, or downstream of a dead event on their process) keep rank
	// 0 — they never pass the consistency check, so their rank is moot.
	p.rank = make([]uint32, events)
	cutc := make([]uint64, n)
	placed := uint32(1)
	for progressed := true; progressed; {
		progressed = false
		for i := 0; i < n; i++ {
			for int(cutc[i]) < p.lens[i] && p.canAdvance(cutc, i) {
				p.rank[p.base[i]+int(cutc[i])] = placed
				placed++
				cutc[i]++
				progressed = true
			}
		}
	}

	p.mask = 1<<p.bits - 1
	p.shift = make([]uint, n)
	for i := range p.shift {
		p.shift[i] = uint(n-1-i) * p.bits
	}
	if p.swar {
		// Repack each event's constraint row into key geometry. Dead
		// events and unrepresentable components become sentinel fields —
		// the largest guard-clear value, which no cut counter (≤ maxP ≤
		// 1<<gb − 2) ever satisfies, and which keeps the per-field
		// subtraction borrow-free. The same all-sentinel row is appended
		// after each process's last event, so the expansion loop needs
		// no "already at the end?" branch — a counter at lens[i] simply
		// hits the sentinel.
		var unsat uint64
		for i := range p.shift {
			p.hmask |= 1 << (p.shift[i] + gb)
			unsat |= (1<<gb - 1) << p.shift[i]
		}
		p.prows = make([]prow, events+n)
		p.rowOff = make([]uint64, n)
		for t := 0; t < n; t++ {
			p.delta[t] = 1 << (uint(t) * p.bits)
		}
		for i := 0; i < n; i++ {
			off := uint64(p.base[i] + i)
			p.rowOff[n-1-i] = off // expansion peels the low field (proc n-1) first
			for k := 0; k < p.lens[i]; k++ {
				ev := p.base[i] + k
				var req uint64
				for _, pr := range p.pairs[p.offs[ev]:p.offs[ev+1]] {
					j, v := pr>>32, pr&math.MaxUint32
					if pr == deadPair || v >= 1<<gb-1 {
						req = unsat
						break
					}
					req |= v << p.shift[j]
				}
				p.prows[off+uint64(k)] = prow{req: req, rn: p.rank[ev]}
			}
			p.prows[off+uint64(p.lens[i])] = prow{req: unsat}
		}
	}
	e.surveyPrep.Store(p)
	return p
}

// canAdvance is the incremental check in sparse form: with comp the
// current (already consistent) cut, can process i's next event be
// included? True iff every constraint of that event is met by the
// pre-advance cut. The packed engine uses the branch-free prows form
// instead whenever the guard-bit geometry fits.
func (p *surveyPrep) canAdvance(comp []uint64, i int) bool {
	ev := p.base[i] + int(comp[i])
	for _, pr := range p.pairs[p.offs[ev]:p.offs[ev+1]] {
		if comp[pr>>32] < pr&math.MaxUint32 {
			return false
		}
	}
	return true
}

// surveyScratch holds one traversal's reusable state: the run header
// and the frontier and decode buffers.
type surveyScratch struct {
	run       surveyRun
	cur, next []fent
	comp      []uint64
	cut       []int
}

var scratchPool = sync.Pool{New: func() any { return new(surveyScratch) }}

// Survey traverses the lattice of consistent cuts exactly once,
// level-synchronously from the empty cut, and returns count, level
// sizes and width together. It is the fast path behind CountConsistent,
// LevelSizes and Width; call it directly when more than one statistic
// (or a per-cut visitor) is needed, so the lattice is walked only once.
func (e *Execution) Survey(opt SurveyOptions) *SurveyResult {
	res := &SurveyResult{LevelSizes: make([]int64, e.Events()+1)}
	reg := obsReg.Load()
	var sp obs.Span
	if reg != nil {
		sp = reg.StartSpanAt("lattice.survey", wallNow())
	}

	sc := scratchPool.Get().(*surveyScratch)
	s := &sc.run
	*s = surveyRun{surveyPrep: e.prep()}
	if s.packed {
		s.runPacked(opt, res, sc)
	} else {
		s.runStrings(opt, res)
	}
	for _, lv := range res.LevelSizes {
		if lv > res.Width {
			res.Width = lv
		}
	}

	if reg != nil {
		reg.Counter("lattice.surveys").Inc()
		reg.Counter("lattice.cuts").Add(res.Count)
		reg.Counter("lattice.expanded").Add(s.expanded)
		reg.Counter("lattice.dedup_hits").Add(s.dedup)
		reg.Gauge("lattice.frontier").SetWithMax(0, s.peak)
		sp.EndAt(wallNow())
	}
	scratchPool.Put(sc)
	return res
}

// surveyRun is one traversal's mutable state over the shared prep.
type surveyRun struct {
	*surveyPrep
	expanded, dedup, peak int64
}

// ---- packed-uint64 engine ----

// ensureCap grows out (preserving its contents) so that len(keys)*n more
// entries fit: every expansion writes candidates at unconditional
// indices and truncates afterwards, instead of branching on append.
func (s *surveyRun) ensureCap(out []fent, keys []fent) []fent {
	if need := len(out) + len(keys)*s.n; cap(out) < need {
		grown := make([]fent, len(out), need)
		copy(grown, out)
		out = grown
	}
	return out
}

// expandSWAR appends every canonical successor of the frontier entries
// in keys to out, duplicate-free by construction, using the branch-free
// guard-bit check. The kernels fuse the consistency verdict and the
// canonical-rank test into one 0/1 emit bit per candidate and emit by
// overwrite: every candidate is stored unconditionally at the write
// cursor, which advances only when the bit is set, so a rejected
// candidate is simply overwritten by the next one. The loop body has no
// data-dependent branches at all — frontier levels average about one
// emission per entry, which makes a drain branch near-unpredictable.
// The field width 4 kernel covers every p ≤ 6 execution, where the
// compiler turns the decode shifts into immediates; other widths take
// the generic per-entry loop.
func (s *surveyRun) expandSWAR(keys []fent, out []fent) []fent {
	if s.bits == 4 {
		switch s.n {
		case 4:
			return s.expandSWAR4x4(keys, out)
		case 6:
			return s.expandSWAR4x6(keys, out)
		}
		return s.expandSWAR4(keys, out)
	}
	out = s.ensureCap(out, keys)
	w := len(out)
	out = out[:cap(out)]
	for _, e := range keys {
		w = s.expandOne(e, out, w)
	}
	return out[:w]
}

// expandSWAR4 is expandSWAR specialized to 4-bit fields (any execution
// with at most 6 events per process packs into them) at arbitrary n.
// Candidates emit by overwrite in field order, and the kernel needs no
// per-run scratch.
func (s *surveyRun) expandSWAR4(keys []fent, out []fent) []fent {
	const fw, mask = 4, uint64(0xF)
	h := s.hmask
	rowOff, rows := s.rowOff, s.prows
	delta := &s.delta
	out = s.ensureCap(out, keys)
	w := len(out)
	out = out[:cap(out)]
	for _, e := range keys {
		kh, kr := e.key|h, e.key
		mr := int32(e.mr)
		for i, off := range rowOff {
			r := rows[off+kr&mask]
			z := (kh-r.req)&h ^ h // 0 iff the advance is consistent
			// emit iff consistent and the event outranks the cut's max
			ok := uint32(mr-int32(r.rn)) >> 31 &^ uint32((z|-z)>>63)
			out[w] = fent{key: e.key + delta[i&31], mr: r.rn}
			w += int(ok)
			kr >>= fw
		}
	}
	return out[:w]
}

// expandSWAR4x4 fully unrolls the n=4, 4-bit-field case (the shape of
// every 4-process sweep with p ≤ 6). The four row loads are
// independent — no serial key-decode chain, no loop control — so
// consecutive entries overlap freely in the out-of-order window; only
// the write index links them, through four branchless
// store-and-maybe-advance emissions per entry.
func (s *surveyRun) expandSWAR4x4(keys []fent, out []fent) []fent {
	const mask = uint64(0xF)
	h := s.hmask
	rows := s.prows
	o0, o1, o2, o3 := s.rowOff[0], s.rowOff[1], s.rowOff[2], s.rowOff[3]
	out = s.ensureCap(out, keys)
	w := len(out)
	out = out[:cap(out)]
	for _, e := range keys {
		k := e.key
		r0 := rows[o0+k&mask]
		r1 := rows[o1+k>>4&mask]
		r2 := rows[o2+k>>8&mask]
		r3 := rows[o3+k>>12&mask]
		kh := k | h
		mr := int32(e.mr)
		z0 := (kh-r0.req)&h ^ h // 0 iff the advance is consistent
		z1 := (kh-r1.req)&h ^ h
		z2 := (kh-r2.req)&h ^ h
		z3 := (kh-r3.req)&h ^ h
		// emit iff consistent and the event outranks the cut's max
		ok0 := uint32(mr-int32(r0.rn)) >> 31 &^ uint32((z0|-z0)>>63)
		ok1 := uint32(mr-int32(r1.rn)) >> 31 &^ uint32((z1|-z1)>>63)
		ok2 := uint32(mr-int32(r2.rn)) >> 31 &^ uint32((z2|-z2)>>63)
		ok3 := uint32(mr-int32(r3.rn)) >> 31 &^ uint32((z3|-z3)>>63)
		out[w] = fent{key: k + 1, mr: r0.rn}
		w += int(ok0)
		out[w] = fent{key: k + 1<<4, mr: r1.rn}
		w += int(ok1)
		out[w] = fent{key: k + 1<<8, mr: r2.rn}
		w += int(ok2)
		out[w] = fent{key: k + 1<<12, mr: r3.rn}
		w += int(ok3)
	}
	return out[:w]
}

// expandSWAR4x6 is the n=6 sibling of expandSWAR4x4 (the O(pⁿ) sweep
// regime of E3): six independent row loads, six branchless emissions.
func (s *surveyRun) expandSWAR4x6(keys []fent, out []fent) []fent {
	const mask = uint64(0xF)
	h := s.hmask
	rows := s.prows
	o0, o1, o2 := s.rowOff[0], s.rowOff[1], s.rowOff[2]
	o3, o4, o5 := s.rowOff[3], s.rowOff[4], s.rowOff[5]
	out = s.ensureCap(out, keys)
	w := len(out)
	out = out[:cap(out)]
	for _, e := range keys {
		k := e.key
		r0 := rows[o0+k&mask]
		r1 := rows[o1+k>>4&mask]
		r2 := rows[o2+k>>8&mask]
		r3 := rows[o3+k>>12&mask]
		r4 := rows[o4+k>>16&mask]
		r5 := rows[o5+k>>20&mask]
		kh := k | h
		mr := int32(e.mr)
		z0 := (kh-r0.req)&h ^ h
		z1 := (kh-r1.req)&h ^ h
		z2 := (kh-r2.req)&h ^ h
		z3 := (kh-r3.req)&h ^ h
		z4 := (kh-r4.req)&h ^ h
		z5 := (kh-r5.req)&h ^ h
		ok0 := uint32(mr-int32(r0.rn)) >> 31 &^ uint32((z0|-z0)>>63)
		ok1 := uint32(mr-int32(r1.rn)) >> 31 &^ uint32((z1|-z1)>>63)
		ok2 := uint32(mr-int32(r2.rn)) >> 31 &^ uint32((z2|-z2)>>63)
		ok3 := uint32(mr-int32(r3.rn)) >> 31 &^ uint32((z3|-z3)>>63)
		ok4 := uint32(mr-int32(r4.rn)) >> 31 &^ uint32((z4|-z4)>>63)
		ok5 := uint32(mr-int32(r5.rn)) >> 31 &^ uint32((z5|-z5)>>63)
		out[w] = fent{key: k + 1, mr: r0.rn}
		w += int(ok0)
		out[w] = fent{key: k + 1<<4, mr: r1.rn}
		w += int(ok1)
		out[w] = fent{key: k + 1<<8, mr: r2.rn}
		w += int(ok2)
		out[w] = fent{key: k + 1<<12, mr: r3.rn}
		w += int(ok3)
		out[w] = fent{key: k + 1<<16, mr: r4.rn}
		w += int(ok4)
		out[w] = fent{key: k + 1<<20, mr: r5.rn}
		w += int(ok5)
	}
	return out[:w]
}

// expandOne is the generic-width single-entry kernel: same branchless
// emit-by-overwrite scheme as expandSWAR4, variable field width.
func (s *surveyRun) expandOne(e fent, out []fent, w int) int {
	fw, mask, h := s.bits, s.mask, s.hmask
	rows := s.prows
	kh, kr := e.key|h, e.key
	mr := int32(e.mr)
	for i, off := range s.rowOff {
		r := rows[off+kr&mask]
		z := (kh-r.req)&h ^ h
		ok := uint32(mr-int32(r.rn)) >> 31 &^ uint32((z|-z)>>63)
		out[w] = fent{key: e.key + s.delta[i&31], mr: r.rn}
		w += int(ok)
		kr >>= fw
	}
	return w
}

// expandPairs is the expansion step for the no-guard-bit geometry,
// decoding the cut and checking the sparse constraint rows, with the
// same canonical-rank rule (each cut generated exactly once). comp is
// n-sized scratch for the decoded cut.
func (s *surveyRun) expandPairs(keys []fent, out []fent, comp []uint64) []fent {
	for _, f := range keys {
		for j := 0; j < s.n; j++ {
			comp[j] = f.key >> s.shift[j] & s.mask
		}
		for i := 0; i < s.n; i++ {
			c := int(comp[i])
			if c >= s.lens[i] {
				continue
			}
			rn := s.rank[s.base[i]+c]
			if rn > f.mr && s.canAdvance(comp, i) {
				out = append(out, fent{key: f.key + 1<<s.shift[i], mr: rn})
			}
		}
	}
	return out
}

func (s *surveyRun) expandPacked(keys []fent, out []fent, comp []uint64) []fent {
	if s.swar {
		return s.expandSWAR(keys, out)
	}
	return s.expandPairs(keys, out, comp)
}

func (s *surveyRun) runPacked(opt SurveyOptions, res *SurveyResult, sc *surveyScratch) {
	cur, next := append(sc.cur[:0], fent{}), sc.next[:0]
	if cap(sc.comp) < s.n {
		sc.comp = make([]uint64, s.n)
	}
	comp := sc.comp[:s.n]
	var cut []int
	if opt.Visit != nil {
		if cap(sc.cut) < s.n {
			sc.cut = make([]int, s.n)
		}
		cut = sc.cut[:s.n]
	}

	plain := opt.Visit == nil && opt.Limit <= 0
	for level := 0; len(cur) > 0; level++ {
		if int64(len(cur)) > s.peak {
			s.peak = int64(len(cur))
		}
		if plain {
			res.Count += int64(len(cur))
			res.LevelSizes[level] = int64(len(cur))
		} else {
			// Visit the whole level before expanding it, so a limit or
			// an aborting visitor never pays for successors it will not
			// see.
			for _, f := range cur {
				if opt.Limit > 0 && res.Count == opt.Limit {
					sc.cur, sc.next = cur, next
					res.Truncated = true
					return
				}
				res.Count++
				res.LevelSizes[level]++
				if opt.Visit != nil {
					for j := 0; j < s.n; j++ {
						cut[j] = int(f.key >> s.shift[j] & s.mask)
					}
					if !opt.Visit(cut) {
						sc.cur, sc.next = cur, next
						res.Truncated = true
						return
					}
				}
			}
		}
		s.expanded += int64(len(cur))
		next = s.expandPacked(cur, next[:0], comp)
		if opt.Visit != nil && len(next) > 1 {
			// Canonical generation emits in parent order, not key order;
			// restore the documented lexicographic visit order.
			slices.SortFunc(next, func(a, b fent) int {
				switch {
				case a.key < b.key:
					return -1
				case a.key > b.key:
					return 1
				}
				return 0
			})
		}
		cur, next = next, cur
	}
	sc.cur, sc.next = cur, next
}

// ---- string-key fallback engine (cuts too wide for one uint64) ----

func (s *surveyRun) runStrings(opt SurveyOptions, res *SurveyResult) {
	if s.n == 0 {
		// Zero processes: the lattice is the single empty cut.
		res.Count, res.LevelSizes[0] = 1, 1
		if opt.Visit != nil && !opt.Visit([]int{}) {
			res.Truncated = true
		}
		return
	}
	cur := [][]int{make([]int, s.n)}
	buf := make([]byte, 8*s.n)
	comp := make([]uint64, s.n)
	seen := make(map[string][]int)
	for level := 0; len(cur) > 0; level++ {
		if int64(len(cur)) > s.peak {
			s.peak = int64(len(cur))
		}
		for _, cut := range cur {
			if opt.Limit > 0 && res.Count == opt.Limit {
				res.Truncated = true
				return
			}
			res.Count++
			res.LevelSizes[level]++
			if opt.Visit != nil && !opt.Visit(cut) {
				res.Truncated = true
				return
			}
		}
		s.expanded += int64(len(cur))
		for _, c := range cur {
			for j, v := range c {
				comp[j] = uint64(v)
			}
			for i := 0; i < s.n; i++ {
				if c[i] >= s.lens[i] || !s.canAdvance(comp, i) {
					continue
				}
				succ := append([]int(nil), c...)
				succ[i]++
				for j, v := range succ {
					binary.BigEndian.PutUint64(buf[8*j:], uint64(v))
				}
				if _, dup := seen[string(buf)]; dup {
					s.dedup++
				} else {
					seen[string(buf)] = succ
				}
			}
		}
		// Fixed-width big-endian keys sort exactly like cuts do
		// lexicographically, keeping the visit order deterministic.
		keys := make([]string, 0, len(seen))
		for k := range seen {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		cur = cur[:0]
		for _, k := range keys {
			cur = append(cur, seen[k])
			delete(seen, k)
		}
	}
}
