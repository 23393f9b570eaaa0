package clock

import (
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
	entryCases
)

// sparseVsDense decodes ops into an interleaving of Strobe() calls and
// arbitrary stamps, drives process me's SparseStrobeVector and
// DiffStrobeVector through it side by side, and after every step demands
// identical stamps, snapshots and OwnClock plus the sparse state's own
// invariants. Each op is one byte b: b&3 == 0 strobes; anything else
// delivers a stamp of b>>2 entries, three bytes each — a little-endian
// proc drawn from [-8, n+8) and a value in [0, 32), small so that equal
// and stale values are common. b&3 == 1 delivers the entries as decoded
// (any order, duplicates and all); 2 and 3 sort them by proc first, the
// shape Strobe() emits, except that equal procs still split the run.
func sparseVsDense(t *testing.T, n, me int, ops []byte) (seen [entryCases]int) {
	t.Helper()
	sparse, dense := NewSparseStrobeVector(me, n), NewDiffStrobeVector(me, n)
	for step := 0; len(ops) > 0; step++ {
		op := ops[0]
		ops = ops[1:]
		if op&3 == 0 {
			if ds, ss := dense.Strobe(), sparse.Strobe(); !reflect.DeepEqual(ds, ss) {
				t.Fatalf("step %d: stamp diverged\ndense:  %v\nsparse: %v", step, ds, ss)
			}
		} else {
			k := min(int(op>>2), len(ops)/3)
			st := make(SparseStamp, k)
			for i := range st {
				st[i] = SparseEntry{
					Proc: (int(ops[0])|int(ops[1])<<8)%(n+16) - 8,
					Val:  uint64(ops[2] & 31),
				}
				ops = ops[3:]
			}
			if op&3 != 1 {
				slices.SortStableFunc(st, func(a, b SparseEntry) int { return a.Proc - b.Proc })
			}
			classify(&seen, dense.Snapshot(), me, st)
			dense.OnStrobe(st)
			sparse.OnStrobe(st)
		}
		if dv, sv := dense.Snapshot(), sparse.Snapshot(); !reflect.DeepEqual(dv, sv) {
			t.Fatalf("step %d: snapshot diverged\ndense:  %v\nsparse: %v", step, dv, sv)
		}
		if dense.OwnClock() != sparse.OwnClock() {
			t.Fatalf("step %d: own clock dense=%d sparse=%d", step, dense.OwnClock(), sparse.OwnClock())
		}
		dirty := 0
		for i, c := range sparse.comps {
			if c.val == 0 || int(c.proc) == me || i > 0 && sparse.comps[i-1].proc >= c.proc {
				t.Fatalf("step %d: component %d of %v is zero, own or out of order", step, i, sparse.comps)
			}
			if c.dirty {
				dirty++
			}
		}
		if dirty != sparse.dirty {
			t.Fatalf("step %d: dirty count %d, but %d components are dirty", step, sparse.dirty, dirty)
		}
	}
	return seen
}

// classify tallies what each entry of st is to a receiver whose merged
// knowledge is v, replaying the merge on v (a scratch snapshot).
func classify(seen *[entryCases]int, v Vector, me int, st SparseStamp) {
	named := map[int]bool{}
	for i, e := range st {
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

// TestSparseSurvivesHostileStamps is the property at a fixed seed and
// n = 300: whatever a peer sends — descending, repeated, out-of-range,
// negative, own, zero, equal, stale — the sparse clock stays the dense
// clock's twin and keeps its invariants.
func TestSparseSurvivesHostileStamps(t *testing.T) {
	const n = 300
	r := stats.NewRNG(17)
	var seen [entryCases]int
	for trial := 0; trial < 150; trial++ {
		ops := make([]byte, 400+r.Intn(3000))
		for i := range ops {
			ops[i] = byte(r.Intn(256))
		}
		for c, k := range sparseVsDense(t, n, r.Intn(n), ops) {
			seen[c] += k
		}
	}
	t.Logf("entries by case: %v", seen)
	for c, k := range seen {
		if k < 100 {
			t.Errorf("the draw reached case %d only %d times", c, k)
		}
	}
}

// FuzzSparseOnStrobe is the same body under the native fuzzer, the first
// two bytes choosing n in [2, 257] and the receiver. The checked-in corpus
// in testdata/fuzz/FuzzSparseOnStrobe has one entry per hostile case
// (n = 16, me = 5) and one for a sorted run that mixes hits and misses.
func FuzzSparseOnStrobe(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 2 + int(data[0])
		sparseVsDense(t, n, int(data[1])%n, data[2:])
	})
}
