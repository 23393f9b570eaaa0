package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	for _, at := range []Time{50, 10, 30, 20, 40} {
		at := at
		e.At(at, func(now Time) { got = append(got, now) })
	}
	e.RunAll()
	want := []Time{10, 20, 30, 40, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func(Time) { got = append(got, i) })
	}
	e.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-time events ran out of order: %v", got)
		}
	}
}

func TestEngineAfterAndNow(t *testing.T) {
	e := NewEngine(1)
	var at1, at2 Time
	e.After(100, func(now Time) {
		at1 = now
		e.After(50, func(now Time) { at2 = now })
	})
	e.RunAll()
	if at1 != 100 || at2 != 150 {
		t.Fatalf("at1=%v at2=%v", at1, at2)
	}
	if e.Now() != 150 {
		t.Fatalf("final now %v", e.Now())
	}
}

func TestEngineRunHorizon(t *testing.T) {
	e := NewEngine(1)
	ran := make(map[Time]bool)
	for _, at := range []Time{10, 20, 30} {
		at := at
		e.At(at, func(Time) { ran[at] = true })
	}
	end := e.Run(20)
	if end != 20 {
		t.Fatalf("end %v", end)
	}
	if !ran[10] || !ran[20] || ran[30] {
		t.Fatalf("ran=%v; events at the horizon must run, later ones must not", ran)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending %d", e.Pending())
	}
	e.RunAll()
	if !ran[30] {
		t.Fatal("resumed run skipped remaining event")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(100, func(Time) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		e.At(50, func(Time) {})
	})
	e.RunAll()
}

func TestNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	NewEngine(1).At(5, nil)
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []int64 {
		e := NewEngine(99)
		var trace []int64
		var tick func(Time)
		n := 0
		tick = func(now Time) {
			trace = append(trace, int64(now))
			n++
			if n < 200 {
				e.After(Duration(e.RNG().Intn(1000)+1), tick)
			}
		}
		e.At(0, tick)
		e.RunAll()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("trace lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Property: executing any batch of scheduled delays yields a non-decreasing
// sequence of handler times.
func TestEngineMonotoneProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(5)
		var times []Time
		for _, d := range delays {
			e.At(Time(d), func(now Time) { times = append(times, now) })
		}
		e.RunAll()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStepReturnsFalseWhenDrained(t *testing.T) {
	e := NewEngine(1)
	if e.Step() {
		t.Fatal("Step on empty engine returned true")
	}
	e.At(3, func(Time) {})
	if !e.Step() {
		t.Fatal("Step with pending event returned false")
	}
	if e.Step() {
		t.Fatal("Step after drain returned true")
	}
}

func TestHeapDepthWatermarkCountsLiveEvents(t *testing.T) {
	e := NewEngine(1)
	nop := func(Time) {}
	for i := 0; i < 100; i++ {
		e.At(Time(i+1), nop)
	}
	if e.MaxHeapDepth != 100 {
		t.Fatalf("watermark %d, want 100", e.MaxHeapDepth)
	}
	e.RunAll()
	if e.Executed != 100 {
		t.Fatalf("executed %d", e.Executed)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine(uint64(i))
		var tick func(Time)
		n := 0
		tick = func(Time) {
			n++
			if n < 1000 {
				e.After(Duration(e.RNG().Intn(100)+1), tick)
			}
		}
		e.At(0, tick)
		e.RunAll()
	}
}
