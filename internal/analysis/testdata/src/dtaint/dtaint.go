// Package dtaint is inside the deterministic boundary for the
// determinism taint golden test: every finding here is a call-graph edge
// crossing out of the boundary into a transitively nondeterministic
// helper in fix/dthelp — the cross-package shape a per-package walk
// cannot see.
package dtaint

import (
	"time"

	"fix/dthelp"
)

// Step calls a helper that reads the wall clock directly.
func Step(start time.Time) int64 {
	return dthelp.Elapsed(start) // want `call to dthelp.Elapsed is determinism-tainted: reaches time.Since`
}

// Observe reaches the same seed through one intermediate hop; the
// finding names the path.
func Observe(start time.Time) int64 {
	return dthelp.Observed(start) // want `call to dthelp.Observed is determinism-tainted: reaches time.Since at dthelp.go:\d+ via dthelp.Elapsed`
}

// Pure calls a clean helper; no finding.
func Pure(x int64) int64 {
	return dthelp.Scale(x)
}

// Sample dispatches through the Sampler seam: the implements-set
// resolution fans the call out, and the WallSampler implementation is
// tainted. FixedSampler satisfies the same interface and stays silent.
func Sample(s dthelp.Sampler) int64 {
	return s.Sample() // want `call to dthelp.WallSampler.Sample .dynamic dispatch via dthelp.Sampler.Sample. is determinism-tainted: reaches time.Now`
}

// Mode calls a helper whose ambient read is suppressed at the seed —
// the taint never starts, so this caller is clean.
func Mode() string {
	return dthelp.Mode()
}

// Justified is the annotated boundary crossing: the finding is
// suppressed at the call site.
func Justified(start time.Time) int64 {
	return dthelp.Elapsed(start) //lint:allow determinism(fixture: span epoch, wall clock is the point)
}
