package sim

import "testing"

func TestAfterNegativePanics(t *testing.T) {
	e := NewEngine(1)
	e.At(100, func(Time) {
		defer func() {
			if recover() == nil {
				t.Error("After(-1) did not panic")
			}
		}()
		e.After(-1, func(Time) {})
	})
	e.RunAll()
}

func TestExecutedCounter(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 5; i++ {
		e.At(Time(i), func(Time) {})
	}
	e.RunAll()
	if e.Executed != 5 {
		t.Fatalf("executed %d", e.Executed)
	}
}
