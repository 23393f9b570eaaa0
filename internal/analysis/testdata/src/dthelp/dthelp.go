// Package dthelp is a utility package OUTSIDE the deterministic
// boundary, for the determinism taint golden test: its wall-clock and
// environment reads are not reported at their own sites, so the taint
// analysis has to find them through the call graph.
package dthelp

import (
	"os"
	"time"
)

// Elapsed reads the wall clock: a taint seed.
func Elapsed(start time.Time) int64 {
	return time.Since(start).Microseconds()
}

// Observed is one hop above Elapsed: tainted transitively.
func Observed(start time.Time) int64 {
	return Elapsed(start) / 2
}

// Scale is pure arithmetic: never tainted.
func Scale(x int64) int64 {
	return x * 2
}

// Sampler is the interface seam the deterministic side calls through;
// the implements-set resolution must see WallSampler behind it.
type Sampler interface {
	Sample() int64
}

// WallSampler reads the wall clock behind the interface.
type WallSampler struct{}

// Sample is a taint seed reached only by dynamic dispatch.
func (WallSampler) Sample() int64 {
	return time.Now().UnixNano()
}

// FixedSampler is deterministic; it keeps the implements-set honest
// (an interface call fans out to every implementation, but only the
// tainted ones produce findings).
type FixedSampler struct{ V int64 }

// Sample returns stored state: no seed.
func (f FixedSampler) Sample() int64 {
	return f.V
}

// Mode reads the environment, but the seed is suppressed here at its
// site — the one sanctioned ambient read — so callers inside the
// deterministic boundary are not flagged.
func Mode() string {
	return os.Getenv("FIX_MODE") //lint:allow determinism(fixture: sanctioned ambient read, callers stay clean)
}
