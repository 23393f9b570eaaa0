// Level-synchronous lattice survey (Cooper–Marzullo style BFS).
//
// The recursive enumerator (Enumerate, retained as the
// differential-testing oracle) re-derives every cut from scratch with an
// O(n²) pairwise check and has to walk the whole lattice once per
// statistic. Survey walks the lattice of consistent cuts once, level by
// level from the empty cut, generating successors by advancing one
// process at a time, and validates each successor against the newly
// included event's constraint row only — the rest of the cut was
// already consistent, and including one more event cannot retract the
// knowledge of events already in it.
//
// Correctness precondition: stamps must come from a genuine execution —
// per-process monotone (event k+1 knows at least what event k knew) with
// an acyclic knowledge relation between events. Every clock in this
// repository (causal vectors, strobe vectors, trimmed/clamped variants
// of either) satisfies this; under it, every consistent cut is reachable
// from the empty cut through consistent cuts, so the walk visits exactly
// the set the oracle enumerates (TestSurveyMatchesOracle,
// FuzzSurveyOracle).
//
// Canonical generation: a naive BFS reaches each cut once per event that
// can be removed from it, forcing a per-level deduplication pass. This
// walk generates no duplicates in the first place. Preprocessing
// computes a linear extension L of the knowledge relation (a greedy
// topological order over the constraint rows); every nonempty
// consistent cut D then has a unique L-maximal event e, and D − {e} is
// itself consistent (anything that knows e sits above it in L, so
// nothing in D − {e} does). Generating D only from that one predecessor
// — advancing process i on cut C only when C+eᵢ is consistent AND L(eᵢ)
// exceeds the L-rank of every event in C — visits each cut exactly once.
// The added event is the successor's L-maximum, so a frontier entry is
// the cut's per-process prefix counters followed by that one rank.
package lattice

import (
	"math"
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
// lattice.surveys, lattice.cuts (cuts visited) and lattice.expanded
// (cuts whose successors were generated), the lattice.frontier gauge
// (peak frontier size via its high-watermark), and one
// span.lattice.survey histogram entry per traversal in wall-clock µs.
// SetObs(nil) detaches.
func SetObs(r *obs.Registry) { obsReg.Store(r) }

// epoch anchors the engine's wall-clock span timestamps.
var epoch = time.Now() //lint:allow determinism(span-epoch anchor: wall-clock timings feed obs spans only, never survey results)

func wallNow() sim.Time { return sim.Time(time.Since(epoch).Microseconds()) } //lint:allow determinism(span-epoch arithmetic: timestamps feed obs spans only, never survey results)

// SurveyOptions configures one lattice traversal.
type SurveyOptions struct {
	// Limit stops the survey after visiting this many consistent cuts
	// (≤ 0 means no limit). A limited survey holds at most about Limit
	// cuts in memory.
	Limit int64
	// Visit, if non-nil, is called for every consistent cut, level by
	// level from the empty cut; the order within a level is
	// deterministic but unspecified. The slice is reused between calls;
	// clone it to retain. Returning false stops the survey.
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

// surveyPrep is the immutable, shareable preprocessing of an execution:
// the per-event constraint rows and the linear-extension ranks that
// drive canonical generation. It is built once per Execution (cached;
// see Execution.prep) and only read thereafter, so concurrent Survey
// calls on one Execution share it.
type surveyPrep struct {
	n     int
	lens  []int // events per process
	base  []int // base[i]: flat index of process i's event 0
	offs  []int32
	pairs []uint64 // constraints (j<<32 | minCount), offs-indexed
	rank  []uint32 // L-rank per flat event, 1-based (0 = never includable)
}

// deadPair is an unsatisfiable constraint marking an event that can
// never be included (its stamp claims more own events than its index
// allows, so no cut admits it).
const deadPair = uint64(math.MaxUint32)

// prep returns the execution's survey preprocessing, building and
// caching it on first use. The cache assumes Stamps are not mutated
// after the first lattice statistic is computed (every caller in this
// repository trims/clamps stamps before analysis).
func (e *Execution) prep() *surveyPrep {
	if p := e.surveyPrep.Load(); p != nil {
		return p
	}
	n := e.N()
	p := &surveyPrep{n: n, lens: make([]int, n), base: make([]int, n)}
	events := 0
	for i, stamps := range e.Stamps {
		p.lens[i] = len(stamps)
		p.base[i] = events
		events += len(stamps)
	}
	p.offs = make([]int32, events+1)
	for i, stamps := range e.Stamps {
		for k, st := range stamps {
			p.offs[p.base[i]+k] = int32(len(p.pairs))
			// Own component: the event claims to be its process's
			// st[i]-th; includable at index k only if st[i] ≤ k+1.
			// That is always true at check time, so no pair is stored —
			// unless it is violated outright, which kills the event.
			if i < len(st) && st[i] > uint64(k+1) {
				p.pairs = append(p.pairs, deadPair)
				continue
			}
			// Cross components: advancing requires comp[j] ≥ st[j]
			// before the advance. Zero components constrain nothing; a
			// claim past 2³²−1 is held at that bound, which no counter
			// reaches, so it stays unsatisfiable.
			for j := 0; j < n && j < len(st); j++ {
				if j != i && st[j] > 0 {
					p.pairs = append(p.pairs, uint64(j)<<32|min(st[j], math.MaxUint32))
				}
			}
		}
	}
	p.offs[events] = int32(len(p.pairs))

	// Linear-extension ranks: a greedy topological placement. An event
	// is placed as soon as everything it knows is placed, so placement
	// order is a valid linear extension of the knowledge relation; under
	// the walk's acyclicity precondition the sweep places every
	// includable event. Events it cannot place (dead, or downstream of
	// a dead event on their process) keep rank 0 — they never pass the
	// consistency check, so their rank is moot.
	p.rank = make([]uint32, events)
	cut := make([]uint32, n)
	placed := uint32(1)
	for progressed := true; progressed; {
		progressed = false
		for i := range cut {
			for int(cut[i]) < p.lens[i] && p.canAdvance(cut, i) {
				p.rank[p.base[i]+int(cut[i])] = placed
				placed++
				cut[i]++
				progressed = true
			}
		}
	}
	e.surveyPrep.Store(p)
	return p
}

// canAdvance is the incremental check: with comp the current (already
// consistent) cut, can process i's next event be included? True iff
// every constraint of that event is met by the pre-advance cut.
func (p *surveyPrep) canAdvance(comp []uint32, i int) bool {
	ev := p.base[i] + int(comp[i])
	for _, pr := range p.pairs[p.offs[ev]:p.offs[ev+1]] {
		if uint64(comp[pr>>32]) < pr&math.MaxUint32 {
			return false
		}
	}
	return true
}

// Survey traverses the lattice of consistent cuts exactly once,
// level-synchronously from the empty cut, and returns count, level
// sizes and width together, so a caller that needs several statistics
// (or a per-cut visitor) walks the lattice only once.
func (e *Execution) Survey(opt SurveyOptions) *SurveyResult {
	res := &SurveyResult{LevelSizes: make([]int64, e.Events()+1)}
	reg := obsReg.Load()
	var sp obs.Span
	if reg != nil {
		sp = reg.StartSpanAt("lattice.survey", wallNow())
	}

	p := e.prep()
	n, w := p.n, p.n+1    // an entry: n prefix counters, then the max rank
	cut := make([]int, n) // what Visit sees
	var expanded, peak int64
	cur, next := make([]uint32, w), []uint32(nil) // the empty cut, rank 0
	for level := 0; len(cur) > 0; level++ {
		size := int64(len(cur) / w)
		peak = max(peak, size)
		if opt.Limit > 0 && res.Count+size > opt.Limit {
			size, res.Truncated = opt.Limit-res.Count, true
		}
		if opt.Visit == nil {
			res.Count += size
			res.LevelSizes[level] = size
		} else {
			for k := range int(size) {
				for j, c := range cur[k*w : k*w+n] {
					cut[j] = int(c)
				}
				res.Count++
				res.LevelSizes[level]++
				if !opt.Visit(cut) {
					res.Truncated = true
					break
				}
			}
		}
		if res.Truncated {
			break
		}
		expanded += size
		// A limited survey generates at most one cut past its limit: the
		// one that tells the next level it is truncated.
		room := int64(math.MaxInt64)
		if opt.Limit > 0 {
			room = opt.Limit - res.Count + 1
		}
		next = next[:0]
	expand:
		for off := 0; off < len(cur); off += w {
			comp, mr := cur[off:off+n], cur[off+n]
			for i, c := range comp {
				if int(c) >= p.lens[i] {
					continue
				}
				if rn := p.rank[p.base[i]+int(c)]; rn > mr && p.canAdvance(comp, i) {
					if room == 0 {
						break expand
					}
					room--
					next = append(append(next, comp...), rn)
					next[len(next)-w+i]++
				}
			}
		}
		cur, next = next, cur
	}
	for _, lv := range res.LevelSizes {
		res.Width = max(res.Width, lv)
	}

	if reg != nil {
		reg.Counter("lattice.surveys").Inc()
		reg.Counter("lattice.cuts").Add(res.Count)
		reg.Counter("lattice.expanded").Add(expanded)
		reg.Gauge("lattice.frontier").SetWithMax(0, peak)
		sp.EndAt(wallNow())
	}
	return res
}
