package clock

import (
	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// Physical is any clock that maps true simulation time to a local reading.
type Physical interface {
	// Read returns the clock's local time at true time now.
	Read(now sim.Time) sim.Time
}

// Drifting models an unsynchronized hardware oscillator: a fixed offset,
// a constant rate error in parts-per-million, and a read granularity.
// Real sensor-node crystals drift tens of ppm; granularity models timer
// quantization.
type Drifting struct {
	Offset      sim.Time     // reading at true time 0
	DriftPPM    float64      // rate error: +40 ⇒ gains 40 µs per true second
	Granularity sim.Duration // readings are floored to this unit (0 or 1 = exact)
}

// Read implements Physical.
func (d Drifting) Read(now sim.Time) sim.Time {
	t := d.Offset + now + sim.Time(float64(now)*d.DriftPPM/1e6)
	if d.Granularity > 1 {
		if t >= 0 {
			t -= t % d.Granularity
		} else {
			t -= (d.Granularity + t%d.Granularity) % d.Granularity
		}
	}
	return t
}

// EpsilonSynced models the output of a clock synchronization service with
// skew bound ε: each process's reading differs from true time by a fixed
// per-run offset with |offset| ≤ ε/2, so any two readings differ by at
// most ε — the precision regime of Mayo–Kearns [28] and Stoller [34].
type EpsilonSynced struct {
	Off sim.Time
}

// Read implements Physical.
func (e EpsilonSynced) Read(now sim.Time) sim.Time { return now + e.Off }

// NewEpsilonFleet draws n ε-synchronized clocks with independent offsets
// uniform in [-ε/2, +ε/2].
func NewEpsilonFleet(r *stats.RNG, n int, eps sim.Duration) []EpsilonSynced {
	fleet := make([]EpsilonSynced, n)
	if eps <= 0 {
		return fleet
	}
	for i := range fleet {
		fleet[i] = EpsilonSynced{Off: sim.Time(r.Int63n(int64(eps)+1)) - eps/2}
	}
	return fleet
}

// NewDriftingFleet draws n unsynchronized hardware clocks with offsets
// uniform in [0, maxOffset) and drifts uniform in [-maxDriftPPM, +maxDriftPPM].
func NewDriftingFleet(r *stats.RNG, n int, maxOffset sim.Duration, maxDriftPPM float64) []Drifting {
	fleet := make([]Drifting, n)
	for i := range fleet {
		off := sim.Time(0)
		if maxOffset > 0 {
			off = sim.Time(r.Int63n(int64(maxOffset)))
		}
		fleet[i] = Drifting{
			Offset:   off,
			DriftPPM: (2*r.Float64() - 1) * maxDriftPPM,
		}
	}
	return fleet
}
