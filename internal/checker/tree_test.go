package checker

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"pervasive/internal/clock"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
)

// report builds a minimal differential strobe report: the sender's own
// clock component rides the sparse stamp, as the real protocol emits.
func report(proc, seq int, v float64) Report {
	return Report{
		Proc: proc, Seq: seq, Var: "p", Value: v,
		Sparse: clock.SparseStamp{{Proc: proc, Val: uint64(seq)}},
	}
}

func sumTree(n, fanout int, k int) *Tree {
	return New(Config{
		N: n, Pred: predicate.MustParse("sum(p) >= " + itoa(k)), Fanout: fanout,
	})
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [12]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

func TestTreeDetectsAndClosesOccurrences(t *testing.T) {
	tr := sumTree(8, 4, 2)
	tr.OnReport(report(0, 1, 1), 10)
	tr.OnReport(report(5, 1, 1), 20) // sum reaches 2: open
	tr.OnReport(report(5, 2, 0), 30) // back to 1: close
	tr.OnReport(report(3, 1, 1), 40) // open again
	tr.Finish(100)
	occ := tr.Occurrences()
	if len(occ) != 2 {
		t.Fatalf("occurrences = %v, want 2", occ)
	}
	if occ[0].Start != 20 || occ[0].End != 30 {
		t.Errorf("first occurrence = %+v, want [20, 30]", occ[0])
	}
	if occ[1].Start != 40 || occ[1].End != 100 {
		t.Errorf("second occurrence = %+v, want [40, 100] (closed at horizon)", occ[1])
	}
}

func TestTreeAdmissionDiscipline(t *testing.T) {
	tr := sumTree(8, 4, 2)
	tr.OnReport(report(0, 1, 1), 10)
	tr.OnReport(report(0, 1, 1), 11) // duplicate seq: stale
	tr.OnReport(report(0, 3, 1), 12)
	tr.OnReport(report(0, 2, 0), 13) // reordered older: stale
	m := report(0, 1, 0)
	m.Epoch = 1 // rebooted sender: fresh seq space accepted
	tr.OnReport(m, 14)
	old := report(0, 9, 1)
	old.Epoch = 0 // pre-crash straggler under the old epoch: stale
	tr.OnReport(old, 15)
	tr.OnReport(Report{Proc: 99, Seq: 1, Var: "p"}, 16) // out of range
	if tr.Stat.Applied != 3 || tr.Stat.Stale != 4 {
		t.Fatalf("applied/stale = %d/%d, want 3/4", tr.Stat.Applied, tr.Stat.Stale)
	}
	if got := tr.View(0, "p"); got != 0 {
		t.Fatalf("view = %v, want 0 (epoch-1 value)", got)
	}
}

// TestTreeAggregatorCrashRecovery is the regional-node counterpart of
// the sensor epoch-reset tests: when the crashing process is a regional
// aggregator, rejoin must not merge any pre-crash regional state — not
// values, not admission watermarks, not the region's keys in the evaluator.
// TestTreeKeepsNoReportVector: a caller may reuse a report's stamp array
// once OnReport returns, as a recycling transport reuses a delivered body.
// Proc 0's x rises under [1 0]; the caller then overwrites that array to
// [1 1], which would order it after proc 1's [0 1]. The race probe on
// proc 1's rise must still see the concurrent [1 0] and flag the race
// x@0 > x@1 cannot order, as a tree fed fresh copies does.
func TestTreeKeepsNoReportVector(t *testing.T) {
	pred := predicate.MustParse("x@0 > x@1")
	for _, fanout := range []int{1, 2} {
		reused := New(Config{N: 2, Pred: pred, Fanout: fanout, RaceAware: true})
		fresh := New(Config{N: 2, Pred: pred, Fanout: fanout, RaceAware: true})
		vec := clock.Vector{1, 0}
		first := Report{Proc: 0, Seq: 1, Var: "x", Value: 1, Vec: vec}
		reused.OnReport(first, 1)
		first.Vec = clock.Vector{1, 0}
		fresh.OnReport(first, 1)
		vec[1] = 1
		second := Report{Proc: 1, Seq: 1, Var: "x", Value: 1, Vec: clock.Vector{0, 1}}
		reused.OnReport(second, 2)
		fresh.OnReport(second, 2)
		want := []sim.Time{2}
		if got := fresh.Markers(); !slices.Equal(got, want) {
			t.Fatalf("R=%d: a tree fed fresh copies marked %v, want %v", fanout, got, want)
		}
		if got := reused.Markers(); !slices.Equal(got, want) {
			t.Errorf("R=%d: with the first stamp's array overwritten the tree marked %v, want %v", fanout, got, want)
		}
	}
}

func TestTreeAggregatorCrashRecovery(t *testing.T) {
	tr := sumTree(8, 4, 3)
	// Region 1 owns procs 2..3. Drive the predicate true through them.
	tr.OnReport(report(2, 5, 1), 10)
	tr.OnReport(report(3, 5, 1), 20) // sum=2
	tr.OnReport(report(0, 1, 1), 25) // sum=3: open occurrence
	if !tr.cur {
		t.Fatalf("predicate should hold before the crash")
	}

	tr.CrashRegion(1)
	tr.OnReport(report(2, 6, 0), 30) // dropped: aggregator down
	if len(tr.aggs[1].pending) != 0 {
		t.Fatalf("crashed region accepted a report")
	}
	if got := tr.View(2, "p"); got != 1 {
		t.Fatalf("crash must freeze, not wipe, the synced view; got %v", got)
	}

	tr.RecoverRegion(1, 40)
	// Recovery forgets the region wholesale: values and evaluator keys.
	if got := tr.View(2, "p"); got != 0 {
		t.Fatalf("post-recovery view of proc 2 = %v, want 0", got)
	}
	if got := tr.View(3, "p"); got != 0 {
		t.Fatalf("post-recovery view of proc 3 = %v, want 0", got)
	}
	// sum fell to 1 < 3: the occurrence must close at the recovery time.
	occ := tr.Occurrences()
	if len(occ) != 1 || occ[0].End != 40 {
		t.Fatalf("occurrence = %v, want one closed at 40", occ)
	}
	if a := tr.aggs[1]; a.epoch != 1 {
		t.Fatalf("regional epoch = %d, want 1", a.epoch)
	}

	// Fresh admission state: a seq far below the pre-crash watermark is
	// accepted (the rejoined aggregator has no pre-crash watermarks to
	// compare against), and pre-crash values never resurface.
	tr.OnReport(report(2, 1, 1), 50)
	if got := tr.View(2, "p"); got != 1 {
		t.Fatalf("post-recovery report rejected: view = %v", got)
	}
	if tr.cur {
		t.Fatalf("sum should be 2 only after proc 3 reports again — pre-crash values leaked")
	}
	tr.OnReport(report(3, 1, 1), 60)
	if !tr.cur {
		t.Fatalf("predicate should hold again after both procs re-report")
	}
	occ = tr.Occurrences()
	if len(occ) != 2 || occ[1].Start != 60 {
		t.Fatalf("occurrences = %v, want reopening at 60", occ)
	}
}

// TestTreeRecoveryDiscardsStaleRegionalBatches pins the root-side epoch
// discipline: a batch stamped with a pre-recovery regional epoch must
// not move the root's fence back.
func TestTreeRecoveryDiscardsStaleRegionalBatches(t *testing.T) {
	// Hand-deliver a stale batch (regional epoch 0) after a recovery
	// bumped the region to epoch 1.
	tr := sumTree(8, 4, 2)
	tr.OnReport(report(2, 5, 1), 10)
	tr.CrashRegion(1)
	tr.RecoverRegion(1, 15)
	if got := tr.root.regionEpoch[1]; got != 1 {
		t.Fatalf("recovery left the root fence at epoch %d, want 1", got)
	}
	stale := Batch{Region: 1, Epoch: 0, At: 16,
		Triples: []clock.StampTriple{{Proc: 2, Val: 9, Sent: 9}}}
	tr.rootApply(&stale)
	if got := tr.root.regionEpoch[1]; got != 1 {
		t.Fatalf("stale regional batch moved the root fence to epoch %d", got)
	}
}

func TestTreeBatchCoalescing(t *testing.T) {
	tr := New(Config{
		N: 8, Pred: predicate.MustParse("sum(p) >= 99"), Fanout: 2,
		BatchInterval: 100,
	})
	tr.maxBatch = 4
	// Same proc three times inside one window: two coalesces.
	tr.OnReport(report(0, 1, 1), 1)
	tr.OnReport(report(0, 2, 0), 2)
	tr.OnReport(report(0, 3, 1), 3)
	if tr.Stat.Coalesced != 2 || tr.Stat.Batches != 0 {
		t.Fatalf("coalesced/batches = %d/%d, want 2/0", tr.Stat.Coalesced, tr.Stat.Batches)
	}
	// Fill the pending set to maxBatch: forced flush despite the window.
	tr.OnReport(report(1, 1, 1), 4)
	tr.OnReport(report(2, 1, 1), 5)
	tr.OnReport(report(3, 1, 1), 6)
	if tr.Stat.Batches != 1 {
		t.Fatalf("full pending set did not force a flush: %+v", tr.Stat)
	}
	if tr.Stat.BatchTriples != 4 {
		t.Fatalf("batch triples = %d, want 4", tr.Stat.BatchTriples)
	}
	// The root decoded the coalesced report: proc 0 at seq 3, with its
	// value among the entries, since sum(p) spans both regions.
	if tr.in.Triples[0] != (clock.StampTriple{Proc: 0, Val: tr.in.Triples[0].Val, Sent: 3}) {
		t.Fatalf("root decoded %+v for proc 0, want the coalesced seq 3", tr.in.Triples[0])
	}
	if len(tr.in.Entries) != 4 || tr.in.Entries[0] != (BatchEntry{Proc: 0, Var: "p", Value: 1}) {
		t.Fatalf("root decoded entries %+v, want the four boundary values, proc 0's coalesced 1 first", tr.in.Entries)
	}
	// Interval flush: next report after the window flushes the rest.
	tr.OnReport(report(4, 1, 1), 200)
	if tr.Stat.Batches != 2 {
		t.Fatalf("interval flush missing: %+v", tr.Stat)
	}
	if lag := tr.Stat.SyncLagTotal; lag <= 0 {
		t.Fatalf("sync lag total = %v, want > 0", lag)
	}
}

// StateBytes estimates the aggregator's resident footprint: per-process
// admission and value state, the pending sync set, and the race-aware
// stamps and reconstructions when allocated. The estimate uses the same
// flat per-entry costs as the clock package's StateBytes accounting.
func (a *Aggregator) StateBytes() int {
	n := a.hi - a.lo
	b := 96 + n*(8+8+4) // headers, lastSeq/lastEpoch, the pending slot index
	b += len(a.vals.Names()) * (40 + 8*n)
	b += 24 + 64*cap(a.pending)
	if a.stamps != nil {
		b += n * (24 + 32) // stamps and lastChange
	}
	for _, v := range a.recon {
		b += 8 * cap(v)
	}
	for _, v := range a.stamps {
		b += 8 * cap(v)
	}
	return b
}

// TestTreeBoundedAggregatorMemory is the bounded-memory claim: with the
// fan-out scaled with the fleet (fixed region size), the largest
// aggregator footprint stays flat as p grows 16x, and race-blind trees
// never allocate stamps, last changes or reconstructions.
func TestTreeBoundedAggregatorMemory(t *testing.T) {
	perAgg := func(p int) int {
		tr := sumTree(p, p/256, p/2)
		seq := 0
		for round := 0; round < 3; round++ {
			seq++
			for proc := 0; proc < p; proc++ {
				tr.OnReport(report(proc, seq, float64(round%2)), sim.Time(round*10+1))
			}
		}
		max := 0
		for _, a := range tr.aggs {
			if a.recon != nil || a.stamps != nil || a.lastChange != nil {
				t.Fatalf("race-blind aggregator allocated race-probe state")
			}
			if b := a.StateBytes(); b > max {
				max = b
			}
		}
		return max
	}
	small := perAgg(1024) // 4 aggregators of 256
	big := perAgg(16384)  // 64 aggregators of 256
	if big > small*2 {
		t.Fatalf("per-aggregator bytes grew with p: %d at p=1024 vs %d at p=16384", small, big)
	}
}

// TestTreeMatchesCmpSemantics drives every comparison operator through
// a linear clause at its boundary value.
func TestTreeMatchesCmpSemantics(t *testing.T) {
	cases := []struct {
		src  string
		v    float64
		want bool
	}{
		{"p@0 > 1", 1, false}, {"p@0 > 1", 2, true},
		{"p@0 >= 1", 1, true}, {"p@0 < 1", 0, true},
		{"p@0 <= 1", 2, false}, {"p@0 == 1", 1, true},
		{"p@0 != 1", 1, false},
	}
	for _, tc := range cases {
		tr := New(Config{N: 2, Pred: predicate.MustParse(tc.src), Fanout: 2})
		tr.OnReport(report(0, 1, tc.v), 1)
		if got := tr.cur; got != tc.want {
			t.Errorf("%q with p@0=%v: settled=%v, want %v", tc.src, tc.v, got, tc.want)
		}
	}
}

// TestTreeBoundaryKeys: a value rides a sync batch's entries only when a
// clause not settled inside its region reads it — a clause spanning two
// regions, an aggregate, or an untracked clause, which may read anything.
func TestTreeBoundaryKeys(t *testing.T) {
	// Four regions of two over eight processes: p@0 >= 1 is settled in
	// region 0, p@6 + p@7 >= 1 in region 3; p@0 + p@7 >= 1 spans.
	tr := New(Config{N: 8, Fanout: 4,
		Pred: predicate.MustParse("p@0 >= 1 && p@6 + p@7 >= 1 && p@0 + p@7 >= 1")})
	for _, c := range []struct {
		proc int
		want bool
	}{{0, true}, {7, true}, {6, false}, {1, false}} {
		if got := tr.boundaryKey(c.proc, "p"); got != c.want {
			t.Errorf("p@%d boundary-relevant = %v, want %v", c.proc, got, c.want)
		}
	}

	agg := New(Config{N: 8, Fanout: 4, Pred: predicate.MustParse("sum(x) - sum(y) > 200")})
	if !agg.boundaryKey(3, "x") || !agg.boundaryKey(5, "y") || agg.boundaryKey(5, "z") {
		t.Errorf("an aggregate must make exactly its variable boundary-relevant at every process")
	}

	fc := predicate.FuncCond{F: func(s predicate.State) bool { return s.Get(0, "y") > 0 }, Keys: []predicate.Key{{Proc: 0, Name: "x"}}}
	un := New(Config{N: 8, Fanout: 4, Pred: fc})
	if !un.boundaryKey(5, "z") {
		t.Errorf("an untracked clause may read any key; z@5 must be boundary-relevant")
	}
}

// TestTreeOpaqueMatchesDirectEval drives a tree holding an opaque
// predicate and checks its settled verdicts equal direct evaluation.
func TestTreeOpaqueMatchesDirectEval(t *testing.T) {
	pred := predicate.MustParse("p@0 * p@1 >= 1 || p@2 >= 3")
	tr := New(Config{N: 4, Pred: pred, Fanout: 2})
	seq := make([]int, 4)
	set := func(proc int, v float64) {
		seq[proc]++
		tr.OnReport(Report{Proc: proc, Seq: seq[proc], Var: "p", Value: v}, 1)
	}
	check := func(want bool) {
		t.Helper()
		if tr.cur != want {
			t.Fatalf("settled = %v, want %v", tr.cur, want)
		}
	}
	set(0, 1)
	check(false)
	set(1, 1)
	check(true) // product path
	set(1, 0)
	check(false)
	set(2, 3)
	check(true) // disjunct path
}

// pilotSrc is the pilot predicate p@0 + … + p@(m-1) >= k of the sharded
// harness: over the whole fleet it is the fleet-agg benchmark's boundary
// predicate, over eight sensors it is settled inside the first region.
func pilotSrc(m, k int) string {
	terms := make([]string, m)
	for i := range terms {
		terms[i] = "p@" + strconv.Itoa(i)
	}
	return strings.Join(terms, " + ") + " >= " + strconv.Itoa(k)
}

// reportFeed drives a tree with one report per call, each a microsecond
// after the last under a one-microsecond batch interval, so every report
// flushes its aggregator. Process p always reports 1 when p is even and 0
// when odd: the pilot predicates below never flip, so the occurrence log
// stays empty and only the report, race-probe and sync paths run.
type reportFeed struct {
	tr   *Tree
	reps []Report
	next int
	now  sim.Time
}

// newReportFeed builds the feed over n processes. Race-aware, every report
// carries a dense vector stamp in E7's shape, half of them concurrent: an
// odd process's stamp is its own unit vector, an even one's is all ones
// but 2 at its own component, so two stamps of one parity are concurrent
// and an even stamp is after an odd one. The race probe then runs its four
// evaluations against every other process of the sender's parity; the
// values never change, so no probe finds a race and no marker is kept.
func newReportFeed(n, fanout int, pred string, race bool) *reportFeed {
	f := &reportFeed{
		tr:   New(Config{N: n, Pred: predicate.MustParse(pred), Fanout: fanout, RaceAware: race, BatchInterval: 1}),
		reps: make([]Report, n),
	}
	for p := range f.reps {
		f.reps[p] = report(p, 0, float64((p+1)%2))
		if race {
			v := clock.NewVector(n)
			if p%2 == 0 {
				for i := range v {
					v[i] = 1
				}
			}
			v[p]++
			f.reps[p].Vec, f.reps[p].Sparse = v, nil
		}
	}
	return f
}

func (f *reportFeed) feed(k int) {
	for ; k > 0; k-- {
		m := &f.reps[f.next%len(f.reps)]
		m.Seq++
		f.now++
		f.tr.OnReport(*m, f.now)
		f.next++
	}
}

// reportFeedCases are the fleets, fan-outs and predicates the allocation
// guard and BenchmarkTreeReport run: every value a boundary entry of every
// batch, or none, race-blind over 4096 processes; and the classic stack's
// race-aware tree at R = 1 over E7's 64.
var reportFeedCases = []struct {
	name   string
	n      int
	fanout int
	pred   string
	race   bool
}{
	{"boundary/R=1", 4096, 1, pilotSrc(4096, 2049), false},
	{"boundary/R=16", 4096, 16, pilotSrc(4096, 2049), false},
	{"local/R=1", 4096, 1, pilotSrc(8, 5), false},
	{"local/R=16", 4096, 16, pilotSrc(8, 5), false},
	{"race/n=64/R=1", 64, 1, "sum(p) >= 33", true},
}

// TestTreeReportAllocs holds a warm tree's per-report path — admission,
// the columnar view, the evaluator, staging, and a flush's encode →
// decode round trip into reused buffers — to zero allocations.
func TestTreeReportAllocs(t *testing.T) {
	for _, c := range reportFeedCases {
		t.Run(c.name, func(t *testing.T) {
			f := newReportFeed(c.n, c.fanout, c.pred, c.race)
			f.feed(2 * len(f.reps)) // every process reports twice: every column and buffer reaches its size
			batches := f.tr.Stat.Batches
			if allocs := testing.AllocsPerRun(1000, func() { f.feed(1) }); allocs != 0 {
				t.Errorf("%.2f allocations per report, want 0", allocs)
			}
			if got := f.tr.Stat.Batches - batches; got != 1001 {
				t.Errorf("%d flushes over 1001 reports, want one each", got)
			}
			if f.tr.cur || len(f.tr.Occurrences()) != 0 {
				t.Errorf("the predicate flipped: the feed must keep it false")
			}
		})
	}
}

func BenchmarkTreeReport(b *testing.B) {
	for _, c := range reportFeedCases {
		b.Run(c.name, func(b *testing.B) {
			f := newReportFeed(c.n, c.fanout, c.pred, c.race)
			f.feed(2 * len(f.reps))
			b.ReportAllocs()
			b.ResetTimer()
			f.feed(b.N)
		})
	}
}
