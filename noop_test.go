package pervasive

import (
	"reflect"
	"testing"

	"pervasive/internal/faults"
	"pervasive/internal/flight"
	"pervasive/internal/obs"
)

// TestNoopTypesAreNilSafe calls every exported method of each no-op type
// on its nil (or zero) receiver with zero arguments. The nil registry,
// recorder and injector are the disabled fast path of obs, flight and
// faults: a method that dereferences its receiver before a nil guard
// turns "instrumentation off" into a panic.
func TestNoopTypesAreNilSafe(t *testing.T) {
	for _, recv := range []any{
		(*obs.Counter)(nil), (*obs.Gauge)(nil), (*obs.Histogram)(nil), (*obs.LocalHist)(nil),
		(*obs.Registry)(nil), obs.Span{}, (*faults.Injector)(nil), (*flight.Recorder)(nil),
	} {
		v := reflect.ValueOf(recv)
		for i := range v.NumMethod() {
			m, name := v.Method(i), v.Type().Method(i).Name
			args := make([]reflect.Value, m.Type().NumIn())
			for j := range args {
				args[j] = reflect.Zero(m.Type().In(j))
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%T.%s panics on the nil receiver: %v", recv, name, r)
					}
				}()
				if m.Type().IsVariadic() {
					m.CallSlice(args)
				} else {
					m.Call(args)
				}
			}()
		}
	}
}
