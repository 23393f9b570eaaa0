package core

import (
	"container/heap"
	"testing"

	"pervasive/internal/predicate"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// boxedReports is the reorder buffer as PhysicalChecker first kept it: a
// heap.Interface driven by heap.Push and heap.Pop.
type boxedReports []ReportMsg

func (h boxedReports) Len() int           { return len(h) }
func (h boxedReports) Less(i, j int) bool { return h[i].TS < h[j].TS }
func (h boxedReports) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *boxedReports) Push(x any)        { *h = append(*h, x.(ReportMsg)) }
func (h *boxedReports) Pop() any {
	old := *h
	n := len(old)
	m := old[n-1]
	*h = old[:n-1]
	return m
}

// TestPhysicalCheckerAppliesInContainerHeapOrder: equal timestamps leave
// the reorder buffer in whatever order the heap's sifts produce, and that
// order is part of every pinned run (E2, E9, A5). A drawn stream with few
// distinct timestamps goes through the checker — whose predicate sees each
// applied report as the one cell of the view that changed — and through a
// reference that buffers with heap.Push and drains with heap.Pop on the
// same arrival and slack schedule; the two apply orders must be equal.
func TestPhysicalCheckerAppliesInContainerHeapOrder(t *testing.T) {
	const n, reports, slack = 6, 4000, 40
	r := stats.NewRNG(29)
	type arrival struct {
		at sim.Time
		m  ReportMsg
	}
	stream := make([]arrival, reports)
	for i := range stream {
		ts := sim.Time(10 * r.Intn(reports/16)) // many reports per timestamp
		stream[i] = arrival{
			at: ts + sim.Time(r.Intn(2*slack)), // some later than the slack covers
			m:  ReportMsg{Proc: r.Intn(n), Var: "x", Value: float64(i + 1), TS: ts},
		}
	}

	var got []float64
	last := make([]float64, n)
	pred := predicate.FuncCond{F: func(s predicate.State) bool {
		for p := range last {
			if v := s.Get(p, "x"); v != last[p] {
				last[p] = v
				got = append(got, v)
			}
		}
		return false
	}}
	eng := sim.NewEngine(1)
	c := NewPhysicalChecker(eng, n, pred, slack)
	for _, a := range stream {
		eng.At(a.at, func(now sim.Time) { c.OnReport(a.m, now) })
	}
	eng.RunAll()
	c.Finish(sim.Never)

	var want []float64
	var ref boxedReports
	tied := 0
	pop := func() {
		m := heap.Pop(&ref).(ReportMsg)
		want = append(want, m.Value)
		if len(ref) > 0 && ref[0].TS == m.TS {
			tied++
		}
	}
	refEng := sim.NewEngine(1)
	for _, a := range stream {
		refEng.At(a.at, func(sim.Time) {
			heap.Push(&ref, a.m)
			refEng.After(slack, func(now sim.Time) {
				for len(ref) > 0 && ref[0].TS <= now-slack {
					pop()
				}
			})
		})
	}
	refEng.RunAll()
	for len(ref) > 0 {
		pop()
	}

	if len(got) != reports || len(want) != reports {
		t.Fatalf("applied %d reports, the reference %d, want %d each", len(got), len(want), reports)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("apply %d: report %v, heap.Push/heap.Pop applied report %v", i, got[i], want[i])
		}
	}
	if tied < reports/2 {
		t.Errorf("%d reports left a heap whose next timestamp tied theirs; want at least %d", tied, reports/2)
	}
	if c.Reordered == 0 {
		t.Error("no report arrived below the replay watermark")
	}
}
