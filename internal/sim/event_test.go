package sim

import (
	"reflect"
	"testing"
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

// staleRefs reports the pool slots that are free or cancelled yet still
// hold a function or a body.
func staleRefs(e *Engine) (leaks []int32) {
	pending := make(map[int32]bool)
	for _, s := range e.heap {
		if e.pool[s].fn != nil {
			pending[s] = true
		}
	}
	for s := range e.pool {
		if p := &e.pool[s]; !pending[int32(s)] && (p.fn != nil || p.body != nil) {
			leaks = append(leaks, int32(s))
		}
	}
	return leaks
}

// TestStoppedAndFiredSlotsDropTheirBody: Stop prevents either kind of event
// from firing, and a slot that fired, was stopped (tombstone still in the
// heap) or was swept no longer references its body — the pool outlives
// every event, so a stale reference would pin the body for the whole run.
func TestStoppedAndFiredSlotsDropTheirBody(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	count := func(Time, any, int) { fired++ }
	body := new([64]byte)

	tmFunc := e.AtFunc(5, 0, count, body, 1)
	tmHandler := e.At(5, func(Time) { fired++ })
	e.AtFunc(6, 0, count, body, 2)
	if !tmFunc.Stop() || !tmHandler.Stop() {
		t.Fatal("Stop on a pending event reported false")
	}
	if tmFunc.Stop() || tmHandler.Stop() {
		t.Fatal("second Stop reported true")
	}
	if leaks := staleRefs(e); leaks != nil {
		t.Fatalf("tombstoned slots %v still reference their event", leaks)
	}
	e.RunAll()
	if fired != 1 {
		t.Fatalf("%d events fired, want only the one not stopped", fired)
	}
	if leaks := staleRefs(e); leaks != nil {
		t.Fatalf("fired or popped slots %v still reference their event", leaks)
	}

	// Mass cancellation triggers the sweep; the swept slots must be clean
	// and the survivors intact.
	timers := make([]Timer, 256)
	for i := range timers {
		timers[i] = e.AtFunc(Time(100+i), 0, count, body, i)
	}
	for i, tm := range timers {
		if i%8 != 0 {
			tm.Stop()
		}
	}
	if len(e.heap) >= len(timers)/2 {
		t.Fatalf("heap holds %d entries for %d live events: no sweep happened", len(e.heap), e.Pending())
	}
	if leaks := staleRefs(e); leaks != nil {
		t.Fatalf("swept slots %v still reference their event", leaks)
	}
	fired = 0
	e.RunAll()
	if fired != len(timers)/8 {
		t.Fatalf("%d survivors fired, want %d", fired, len(timers)/8)
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

// TestKernelAllocations pins the cycles BenchmarkKernelScheduleStep and
// BenchmarkKernelTimerCancel time at 0 allocs/op, for both event forms: a
// Handler rides in the slot's body without boxing.
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

	e = NewEngine(1)
	nop := func(Time) {}
	cancel := func() {
		e.After(100, nop).Stop()
		e.After(1, nop)
		e.Step()
	}
	for i := 0; i < 256; i++ { // past the first sweep, so heap and pool are at size
		cancel()
	}
	if allocs := testing.AllocsPerRun(1000, cancel); allocs != 0 {
		t.Errorf("schedule+cancel+step: %.1f allocs, want 0", allocs)
	}
}
