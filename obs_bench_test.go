package pervasive

// Overhead benchmarks for the always-on observability layers. The
// acceptance bars: an enabled obs registry slows the DES kernel by <5%
// versus the nil (no-op) registry, and an attached flight recorder
// stays within the same <5% bar versus the nil recorder; cmd/bench
// reports the registry's end-to-end cost as obs.overhead_pct. Run with:
//
//	go test -bench 'DESKernel' -benchtime 2s -count 5 .

import (
	"testing"

	"pervasive/internal/flight"
	"pervasive/internal/network"
	"pervasive/internal/obs"
	"pervasive/internal/sim"
)

type benchPayload struct{}

func (benchPayload) WireSize() int { return 16 }
func (benchPayload) Kind() string  { return "bench" }

// benchKernel drives one DES run dominated by kernel + transport work:
// 8 processes on a full mesh, each delivery triggering the next send,
// 4 concurrent token rings for ~15k link transmissions per run. Only
// the event-loop run is timed — registry setup and the final snapshot
// are per-run one-time costs, not kernel overhead.
func benchKernel(b *testing.B, instrumented, flightOn bool) {
	b.Helper()
	b.ReportAllocs()
	const (
		n       = 8
		horizon = 2 * Second
		delta   = Millisecond
	)
	// One recorder for the whole benchmark, like a deployment: it is
	// attached for the process lifetime and its rings simply keep
	// wrapping. Allocating 128KB of fresh rings per iteration would
	// charge setup GC pressure to the kernel loop instead of the
	// recorder's real per-event cost.
	var rec *flight.Recorder
	if flightOn {
		rec = flight.New(n, flight.DefaultPerProc)
		rec.SetTimeBase("virtual")
	}
	var lastEng *sim.Engine
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		var reg *obs.Registry
		if instrumented {
			reg = obs.NewRegistry()
		}
		eng := sim.NewEngine(uint64(i + 1))
		nt := network.New(eng, network.FullMesh{Nodes: n}, sim.NewDeltaBounded(delta))
		if reg != nil {
			reg.SetNow("virtual", eng.Now)
			obs.CollectEngine(reg, eng)
			nt.SetObs(reg)
		}
		if rec != nil {
			nt.SetFlight(rec)
		}
		for p := 0; p < n; p++ {
			p := p
			nt.Register(p, func(m network.Message, now sim.Time) {
				if now < horizon {
					nt.SendBody(p, (p+1)%n, &network.Body{Payload: benchPayload{}})
				}
			})
		}
		for k := 0; k < 4; k++ {
			nt.SendBody(k, (k+1)%n, &network.Body{Payload: benchPayload{}})
		}
		b.StartTimer()
		eng.RunAll()
		b.StopTimer()
		if nt.Stats.Sent < 4 {
			b.Fatal("kernel did no work")
		}
		if reg != nil {
			snap := reg.Snapshot()
			if len(snap.Counters) == 0 || snap.Counters[0].Value == 0 {
				b.Fatal("no metrics collected")
			}
		}
		lastEng = eng
	}
	// Diagnostic only, once per benchmark rather than per iteration: a
	// per-iteration Snapshot allocates ~128KB of untimed garbage whose
	// concurrent GC mark work would bleed into the next iteration's
	// timed region and masquerade as recorder overhead.
	if rec != nil && lastEng != nil {
		d := rec.Snapshot("bench", lastEng.Now())
		if len(d.Events) == 0 {
			b.Fatal("no flight records captured")
		}
	}
}

// BenchmarkDESKernelNoop is the uninstrumented baseline: a nil registry
// everywhere, so every obs call site is a nil-check no-op.
func BenchmarkDESKernelNoop(b *testing.B) { benchKernel(b, false, false) }

// BenchmarkDESKernelObs is the same workload with a live registry
// attached to the engine and the transport.
func BenchmarkDESKernelObs(b *testing.B) { benchKernel(b, true, false) }

// BenchmarkDESKernelFlight is the same workload with the flight
// recorder attached to the transport (nil obs registry), isolating the
// recorder's per-delivery ring-write cost.
func BenchmarkDESKernelFlight(b *testing.B) { benchKernel(b, false, true) }
