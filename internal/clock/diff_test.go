package clock

import (
	"testing"

	"pervasive/internal/stats"
)

// DiffStrobeVector is the dense differential strobe clock: the current
// vector and the one at the last strobe, both n long, a stamp being their
// diff. It is the reference the production SparseStrobeVector is held to —
// TestSparseEquivalentToDense, TestCutoffBitIdenticalStamps and
// FuzzSparseOnStrobe drive both through one rule sequence and demand
// identical stamps — and the dense side of BenchmarkMergeSparseDense.
type DiffStrobeVector struct {
	inner    *StrobeVector
	lastSent Vector
}

// NewDiffStrobeVector returns process me's dense differential strobe clock
// in an n-process system.
func NewDiffStrobeVector(me, n int) *DiffStrobeVector {
	return &DiffStrobeVector{inner: NewStrobeVector(me, n), lastSent: NewVector(n)}
}

// Snapshot returns the full current vector.
func (d *DiffStrobeVector) Snapshot() Vector { return d.inner.Snapshot() }

// Strobe applies SVC1 and returns every component that changed since the
// previous strobe, in proc order, the ticked own one always among them.
func (d *DiffStrobeVector) Strobe() SparseStamp {
	d.inner.v[d.inner.me]++
	var out SparseStamp
	for i, v := range d.inner.v {
		if v != d.lastSent[i] {
			out = append(out, SparseEntry{Proc: i, Val: v})
			d.lastSent[i] = v
		}
	}
	return out
}

// OnStrobe applies SVC2: componentwise max over the carried entries.
func (d *DiffStrobeVector) OnStrobe(s SparseStamp) { d.inner.v.MergeSparse(s) }

// OwnClock returns the local component.
func (d *DiffStrobeVector) OwnClock() uint64 { return d.inner.v[d.inner.me] }

// StateBytes is the dense footprint: both n-vectors and their headers.
func (d *DiffStrobeVector) StateBytes() int {
	return 16 + 8*(len(d.inner.v)+len(d.lastSent))
}

// The tests below hold the production clock to the differential
// protocol's contract.

func TestDiffStrobeFirstStrobeSendsLocalOnly(t *testing.T) {
	d := NewSparseStrobeVector(1, 4)
	s := d.Strobe()
	if len(s) != 1 || s[0] != (SparseEntry{Proc: 1, Val: 1}) {
		t.Fatalf("first diff %v", s)
	}
	if s.WireBytes() != 10 {
		t.Fatalf("wire bytes %d", s.WireBytes())
	}
}

func TestDiffStrobeSendsOnlyChanges(t *testing.T) {
	d := NewSparseStrobeVector(0, 4)
	d.Strobe() // sends {0:1}
	// Merge knowledge about proc 2.
	d.OnStrobe(SparseStamp{{Proc: 2, Val: 7}})
	s := d.Strobe()
	// Changed since last broadcast: own component (2) and proc 2 (7).
	if len(s) != 2 {
		t.Fatalf("diff %v", s)
	}
	m := map[int]uint64{}
	for _, e := range s {
		m[e.Proc] = e.Val
	}
	if m[0] != 2 || m[2] != 7 {
		t.Fatalf("diff %v", s)
	}
	// Nothing external changed: next strobe carries only the local tick.
	s2 := d.Strobe()
	if len(s2) != 1 || s2[0].Proc != 0 || s2[0].Val != 3 {
		t.Fatalf("diff %v", s2)
	}
}

func TestDiffStrobeIgnoresStaleAndBogusEntries(t *testing.T) {
	d := NewSparseStrobeVector(0, 3)
	d.OnStrobe(SparseStamp{{Proc: 1, Val: 5}})
	d.OnStrobe(SparseStamp{{Proc: 1, Val: 3}})  // stale
	d.OnStrobe(SparseStamp{{Proc: 9, Val: 9}})  // out of range
	d.OnStrobe(SparseStamp{{Proc: -1, Val: 9}}) // out of range
	snap := d.Snapshot()
	if snap.Compare(Vector{0, 5, 0}) != Same {
		t.Fatalf("snapshot %v", snap)
	}
}

// TestDiffEquivalentToFullUnderReliableBroadcast is the compression's
// correctness theorem: with every strobe delivered (any interleaving that
// preserves per-sender order), differential and full strobes produce
// identical knowledge at every process after every event round.
func TestDiffEquivalentToFullUnderReliableBroadcast(t *testing.T) {
	r := stats.NewRNG(42)
	const n = 5
	full := make([]*StrobeVector, n)
	diff := make([]*SparseStrobeVector, n)
	for i := 0; i < n; i++ {
		full[i] = NewStrobeVector(i, n)
		diff[i] = NewSparseStrobeVector(i, n)
	}
	for step := 0; step < 400; step++ {
		src := r.Intn(n)
		fs := full[src].Strobe()
		ds := diff[src].Strobe()
		// Reliable broadcast: all peers merge immediately (per-sender
		// order trivially preserved).
		for j := 0; j < n; j++ {
			if j == src {
				continue
			}
			full[j].OnStrobe(fs)
			diff[j].OnStrobe(ds)
		}
		for j := 0; j < n; j++ {
			if full[j].Snapshot().Compare(diff[j].Snapshot()) != Same {
				t.Fatalf("step %d: proc %d diverged: full=%v diff=%v",
					step, j, full[j].Snapshot(), diff[j].Snapshot())
			}
		}
	}
}

// TestDiffCompressionSavesBytes quantifies the win. Compression pays off
// when activity is skewed — a busy sensor's consecutive strobes differ in
// few components because little else changed in between. That is the
// common sensornet regime (one hot spot, many quiet observers).
func TestDiffCompressionSavesBytes(t *testing.T) {
	r := stats.NewRNG(1)
	const n, steps = 32, 1000
	diff := make([]*SparseStrobeVector, n)
	for i := range diff {
		diff[i] = NewSparseStrobeVector(i, n)
	}
	var diffBytes, fullBytes int64
	for step := 0; step < steps; step++ {
		// Hot-spot workload: sensor 0 produces 80% of the events.
		src := 0
		if r.Bool(0.2) {
			src = 1 + r.Intn(n-1)
		}
		ds := diff[src].Strobe()
		diffBytes += int64(ds.WireBytes())
		fullBytes += int64(8 * n)
		for j := 0; j < n; j++ {
			if j != src {
				diff[j].OnStrobe(ds)
			}
		}
	}
	if diffBytes*2 > fullBytes {
		t.Fatalf("diff strobes saved too little: %d vs %d bytes", diffBytes, fullBytes)
	}
	t.Logf("diff %d bytes vs full %d bytes (%.1f%% of full)",
		diffBytes, fullBytes, 100*float64(diffBytes)/float64(fullBytes))
}

// TestDiffStrobeSingleAllocation pins the hot-loop contract: a strobe
// allocates exactly its sparse stamp — no snapshot, no append growth —
// regardless of how many components changed, and a merge into a clock
// that knows every peer allocates nothing.
func TestDiffStrobeSingleAllocation(t *testing.T) {
	const n = 32
	d := NewSparseStrobeVector(0, n)
	peer := NewSparseStrobeVector(1, n)
	if allocs := testing.AllocsPerRun(100, func() { d.Strobe() }); allocs != 1 {
		t.Fatalf("quiet strobe: %.1f allocs, want 1", allocs)
	}
	// Worst case: every component changed since the last broadcast. The
	// warm-up run teaches both clocks every peer.
	all := make(SparseStamp, n)
	for i := range all {
		all[i] = SparseEntry{Proc: i, Val: 1}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for i := range all {
			all[i].Val += 2
		}
		peer.OnStrobe(all)
		d.OnStrobe(peer.Strobe())
		if len(d.Strobe()) != n {
			t.Fatal("a busy strobe left components out")
		}
	}); allocs != 2 { // one stamp each for peer.Strobe and d.Strobe
		t.Fatalf("busy strobes: %.1f allocs, want 2", allocs)
	}
}

func BenchmarkDiffStrobe(b *testing.B) {
	d := NewSparseStrobeVector(0, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Strobe()
	}
}

func TestDiffStrobeMonotoneUnderLoss(t *testing.T) {
	// Drop 50% of strobes: receivers lag, but clocks stay monotonic and
	// never overtake the true event counts.
	r := stats.NewRNG(9)
	const n = 4
	diff := make([]*SparseStrobeVector, n)
	for i := range diff {
		diff[i] = NewSparseStrobeVector(i, n)
	}
	truth := NewVector(n)
	prev := make([]Vector, n)
	for i := range prev {
		prev[i] = NewVector(n)
	}
	for step := 0; step < 500; step++ {
		src := r.Intn(n)
		truth[src]++
		ds := diff[src].Strobe()
		for j := 0; j < n; j++ {
			if j != src && r.Bool(0.5) {
				diff[j].OnStrobe(ds)
			}
		}
		for j := 0; j < n; j++ {
			snap := diff[j].Snapshot()
			if rel := prev[j].Compare(snap); rel != Before && rel != Same {
				t.Fatalf("proc %d clock regressed", j)
			}
			if rel := snap.Compare(truth); rel != Before && rel != Same {
				t.Fatalf("proc %d knows more than happened: %v > %v", j, snap, truth)
			}
			prev[j] = snap
		}
	}
}
