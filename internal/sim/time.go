// Package sim provides the deterministic discrete-event simulation kernel
// on which the world plane and the network plane execute.
//
// The kernel is a classic event-list simulator: callbacks are scheduled at
// virtual timestamps and executed in timestamp order (ties broken by
// scheduling order, so runs are fully deterministic). Message delay models
// for the three regimes of the paper's Section 3.2.2 — synchronous (Δ=0),
// asynchronous Δ-bounded, and asynchronous unbounded — live here too, since
// they are a property of the simulated transmission medium.
package sim

import (
	"fmt"
	"time"
)

// Time is a virtual timestamp in microseconds since the start of the run.
// Microsecond resolution comfortably spans both the ε skews of physical
// clock synchronization (µs–ms) and the Δ delays of strobe clocks
// (hundreds of ms to s) that the paper compares.
type Time int64

// Duration is a span of virtual time in microseconds.
type Duration = Time

// Handy duration units.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
	Minute      Duration = 60 * Second
	Hour        Duration = 60 * Minute
)

// Never is a sentinel timestamp beyond any reachable virtual time.
const Never Time = 1<<63 - 1

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis converts t to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Std converts t to a standard-library time.Duration.
func (t Time) Std() time.Duration { return time.Duration(t) * time.Microsecond }

// String renders the timestamp with an adaptive unit.
func (t Time) String() string {
	switch {
	case t == Never:
		return "never"
	case t >= Second || t <= -Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond || t <= -Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	default:
		return fmt.Sprintf("%dµs", int64(t))
	}
}
