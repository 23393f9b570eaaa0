package sim

import (
	"reflect"
	"testing"

	"pervasive/internal/stats"
)

// TestHandlerAndFuncEventsShareOneOrder: the two entry points fill the same
// slot, so at equal (at, pri) a Handler event and an AtFunc event fire in
// the order they were scheduled, and pri orders both kinds alike.
func TestHandlerAndFuncEventsShareOneOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	byArg := func(_ Time, body any, arg int) {
		*body.(*[]int) = append(*body.(*[]int), arg)
	}
	byClosure := func(id int) Handler { return func(Time) { order = append(order, id) } }

	e.AtFunc(10, 0, byArg, &order, 0)
	e.At(10, byClosure(1))
	e.AtFunc(10, 0, byArg, &order, 2)
	e.AtPri(10, 0, byClosure(3))
	e.AtFunc(10, 7, byArg, &order, 6) // pri 7 sorts after every pri-0 and pri-5 event
	e.AtPri(10, 5, byClosure(4))
	e.AtFunc(10, 5, byArg, &order, 5)
	e.AtFunc(9, 9, byArg, &order, -1) // earlier time beats any pri
	e.RunAll()
	if want := []int{-1, 0, 1, 2, 3, 4, 5, 6}; !reflect.DeepEqual(order, want) {
		t.Fatalf("fire order = %v, want %v", order, want)
	}
}

// staleRefs reports the pool slots that are free yet still hold a function
// or a body.
func staleRefs(e *Engine) (leaks []int32) {
	pending := make(map[int32]bool)
	for _, s := range e.heap {
		pending[s] = true
	}
	for s := range e.pool {
		if p := &e.pool[s]; !pending[int32(s)] && (p.fn != nil || p.body != nil) {
			leaks = append(leaks, int32(s))
		}
	}
	return leaks
}

// TestFiredSlotsDropTheirBody: a slot that fired no longer references its
// function or body, for either event form — the pool outlives every event,
// so a stale reference would pin the body for the whole run.
func TestFiredSlotsDropTheirBody(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	count := func(Time, any, int) { fired++ }
	body := new([64]byte)

	e.AtFunc(5, 0, count, body, 1)
	e.At(5, func(Time) { fired++ })
	e.AtFunc(6, 0, count, body, 2)
	e.Run(5)
	if fired != 2 {
		t.Fatalf("%d events fired by the horizon, want 2", fired)
	}
	if leaks := staleRefs(e); leaks != nil {
		t.Fatalf("fired slots %v still reference their event while another is pending", leaks)
	}
	e.RunAll()
	if fired != 3 {
		t.Fatalf("%d events fired, want 3", fired)
	}
	if leaks := staleRefs(e); leaks != nil {
		t.Fatalf("fired slots %v still reference their event", leaks)
	}
}

// TestPendingIsScheduledMinusExecuted: with no cancellation the event list
// is exactly the events accepted and not yet run, so across a drawn
// sequence of schedules and steps Pending() == Scheduled − Executed after
// every operation and MaxHeapDepth is the largest value Pending ever took.
func TestPendingIsScheduledMinusExecuted(t *testing.T) {
	e := NewEngine(1)
	rng := stats.NewRNG(7)
	nop := func(Time) {}
	tock := func(Time, any, int) {}
	scheduled, executed, peak := 0, 0, 0
	for op := 0; op < 4000; op++ {
		switch rng.Intn(5) {
		case 0, 1:
			e.At(e.Now()+Time(rng.Intn(50)), nop)
			scheduled++
		case 2:
			e.AtFunc(e.Now()+Time(rng.Intn(50)), uint64(rng.Intn(3)), tock, nil, op)
			scheduled++
		default:
			if e.Step() {
				executed++
			} else if scheduled != executed {
				t.Fatalf("op %d: Step found nothing with %d events outstanding", op, scheduled-executed)
			}
		}
		if scheduled-executed > peak {
			peak = scheduled - executed
		}
		if e.Pending() != scheduled-executed {
			t.Fatalf("op %d: Pending() = %d, want %d scheduled − %d executed", op, e.Pending(), scheduled, executed)
		}
	}
	if e.Scheduled != uint64(scheduled) || e.Executed != uint64(executed) {
		t.Fatalf("counters (%d, %d), want (%d, %d)", e.Scheduled, e.Executed, scheduled, executed)
	}
	if e.MaxHeapDepth != peak || peak < 2 {
		t.Fatalf("MaxHeapDepth = %d, want the peak %d (> 1)", e.MaxHeapDepth, peak)
	}
}

// TestCollectClearsOutbox: the outbox backing arrays are reused every epoch,
// so collect must zero what it has handed to the engines — truncating alone
// leaves every staged function and body reachable from the spare capacity.
func TestCollectClearsOutbox(t *testing.T) {
	sh := NewShards(2, 10*Microsecond, 1)
	got := 0
	body := new([64]byte)
	sh.CrossFromFunc(0, 1, 20*Microsecond, 1, func(Time, any, int) { got++ }, body, 7)
	sh.CrossFrom(1, 0, 20*Microsecond, 2, func(Time) { got++ })
	sh.RunAll()
	if got != 2 {
		t.Fatalf("%d cross events delivered, want 2", got)
	}
	for k, box := range sh.outboxes {
		if len(box) != 0 {
			t.Fatalf("outbox %d not drained: %d entries", k, len(box))
		}
		for i, ev := range box[:cap(box)] {
			if ev.fn != nil || ev.body != nil {
				t.Errorf("outbox %d entry %d still references its event after collect", k, i)
			}
		}
	}
}

// TestKernelAllocations pins the cycle BenchmarkKernelScheduleStep times at
// 0 allocs/op, for both event forms: a Handler rides in the slot's body
// without boxing.
func TestKernelAllocations(t *testing.T) {
	e := NewEngine(1)
	var tick Handler
	tick = func(now Time) { e.After(Duration(now%97)+1, tick) }
	var tock EventFunc
	tock = func(now Time, body any, arg int) { e.AtFunc(now+Duration(arg%97)+1, 0, tock, body, arg+1) }
	for i := 0; i < 512; i++ {
		e.After(Duration(i%97)+1, tick)
		e.AtFunc(Time(i%97)+1, 0, tock, e, i)
	}
	if allocs := testing.AllocsPerRun(1000, func() { e.Step() }); allocs != 0 {
		t.Errorf("schedule+step: %.1f allocs, want 0", allocs)
	}
}
