package clock

import (
	"fmt"
	"slices"
	"testing"

	"pervasive/internal/stats"
)

// Dense-vs-sparse merge and reset costs across system sizes, measuring the
// O(active peers) claim: the sparse clock's cost tracks the stamp size (a
// neighborhood's worth of entries, fixed at 8 here), the dense clock pays
// for its p-length vectors. Run with:
//
//	go test -run xxx -bench 'MergeSparse|ClockReset' ./internal/clock/
var benchSizes = []int{8, 1024, 65536}

// benchStamp builds a neighborhood-sized stamp touching spread-out procs.
func benchStamp(n int) SparseStamp {
	k := 8
	if k > n-1 {
		k = n - 1
	}
	st := make(SparseStamp, 0, k)
	for i := 1; i <= k; i++ {
		st = append(st, SparseEntry{Proc: (i * (n - 1) / k) % n, Val: uint64(i)})
	}
	return st
}

// BenchmarkMergeSparseDense prices the dense reference on the stamps
// BenchmarkMergeSparseSparse and BenchmarkMergeSparseFleet feed the sparse
// clock.
func BenchmarkMergeSparseDense(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("p=%d", n), func(b *testing.B) {
			d := NewDiffStrobeVector(0, n)
			st := benchStamp(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st[0].Val = uint64(i) // keep the merge from becoming a pure no-op
				d.OnStrobe(st)
			}
		})
	}
	for _, sh := range fleetShapes {
		b.Run(sh.name, func(b *testing.B) {
			s, stamps := fleetReceiver(sh.n, sh.known, sh.stamp, sh.unseen)
			d := NewDiffStrobeVector(0, sh.n)
			d.inner.v = s.Snapshot()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.OnStrobe(stamps[i%fleetCycle])
			}
		})
	}
}

func BenchmarkMergeSparseSparse(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("p=%d", n), func(b *testing.B) {
			s := NewSparseStrobeVector(0, n)
			st := benchStamp(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st[0].Val = uint64(i)
				s.OnStrobe(st)
			}
		})
	}
}

func BenchmarkClockResetDense(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("p=%d", n), func(b *testing.B) {
			v := NewVector(n)
			st := benchStamp(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.MergeSparse(st)
				v.Reset()
			}
		})
	}
}

func BenchmarkClockResetSparse(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("p=%d", n), func(b *testing.B) {
			s := NewSparseStrobeVector(0, n)
			st := benchStamp(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.OnStrobe(st)
				s.Reset()
			}
		})
	}
}

// The shapes cmd/bench's workloads were measured to put on the sparse
// clock, which the 8-entry stamps above do not: on fleet-long a sensor
// that knows ~1300 of 4096 peers merges sorted 146-entry stamps of which
// ~15 % name peers it has not heard of; on fleet-wide it knows ~60 of
// 65536 and the stamps carry 14 entries; in the tables' small fleets (E7,
// A4) a warm clock knows every peer and a stamp can name all of them, the
// direct-index merge. Run with:
//
//	go test -run xxx -bench 'SparseFleet|SparseDense' ./internal/clock/
var fleetShapes = []struct {
	name                    string
	n, known, stamp, unseen int
}{
	{"long", 4096, 1300, 146, 22},
	{"wide", 65536, 60, 14, 2},
	{"full-4", 4, 3, 3, 0},
	{"full-8", 8, 7, 7, 0},
	{"full-32", 32, 31, 31, 0},
	{"full-64", 64, 63, 63, 0},
	{"full-128", 128, 127, 127, 0},
}

// fleetCycle is how many stamps a merge benchmark delivers before it puts
// the receiver back to its starting knowledge, so the first sightings
// stay first sightings however large b.N is.
const fleetCycle = 8

// fleetReceiver builds process 0's clock knowing `known` random peers at
// value 1, and one cycle of sorted stamps as Strobe() would emit them:
// each names `unseen` peers no earlier stamp of the cycle has named and
// otherwise raises known ones.
func fleetReceiver(n, known, stamp, unseen int) (*SparseStrobeVector, []SparseStamp) {
	r := stats.NewRNG(uint64(n))
	perm := func(n int) []int { // inside-out Fisher–Yates
		p := make([]int, n)
		for i := range p {
			j := r.Intn(i + 1)
			p[i], p[j] = p[j], i
		}
		return p
	}
	peers := perm(n - 1) // proc-1 of every peer, shuffled: the first `known` are known
	s := NewSparseStrobeVector(0, n)
	base := make(SparseStamp, known)
	for i := range base {
		base[i] = SparseEntry{Proc: peers[i] + 1, Val: 1}
	}
	s.OnStrobe(base)
	s.Strobe()
	stamps := make([]SparseStamp, fleetCycle)
	for c := range stamps {
		st := make(SparseStamp, 0, stamp)
		for _, p := range peers[known+c*unseen:][:unseen] {
			st = append(st, SparseEntry{Proc: p + 1, Val: uint64(c + 2)})
		}
		for _, i := range perm(known)[:stamp-unseen] {
			st = append(st, SparseEntry{Proc: peers[i] + 1, Val: uint64(c + 2)})
		}
		slices.SortFunc(st, func(a, b SparseEntry) int { return a.Proc - b.Proc })
		stamps[c] = st
	}
	return s, stamps
}

func BenchmarkMergeSparseFleet(b *testing.B) {
	for _, sh := range fleetShapes {
		b.Run(sh.name, func(b *testing.B) {
			s, stamps := fleetReceiver(sh.n, sh.known, sh.stamp, sh.unseen)
			start := slices.Clone(s.comps)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%fleetCycle == 0 {
					s.comps, s.dirty = append(s.comps[:0], start...), 0
				}
				s.OnStrobe(stamps[i%fleetCycle])
			}
		})
	}
}

// BenchmarkStrobeSparseFleet prices Strobe() with one stamp's worth of
// merging behind it: the components that merge left dirty are re-marked
// before every call, so each strobe walks the whole state and emits a
// full-size stamp.
func BenchmarkStrobeSparseFleet(b *testing.B) {
	for _, sh := range fleetShapes {
		b.Run(sh.name, func(b *testing.B) {
			s, stamps := fleetReceiver(sh.n, sh.known, sh.stamp, sh.unseen)
			s.OnStrobe(stamps[0])
			var marks []int
			for i, w := range s.comps {
				if w&1 != 0 {
					marks = append(marks, i)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, j := range marks {
					s.comps[j] |= 1
				}
				s.dirty = len(marks)
				benchSink = s.Strobe()
			}
		})
	}
}

// benchSink keeps the compiler from discarding a benchmarked Strobe().
var benchSink SparseStamp
