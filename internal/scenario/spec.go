package scenario

import (
	"fmt"

	"pervasive/internal/predicate"
	"pervasive/internal/workload"
)

// SpecConfig wires a workload spec (see workload.ParseSpecFile) into the
// generic builder: one sensor per world object, every attribute the
// workload touches bound under its own name, and the spec's predicate
// checked Instantaneously. This is the scenario behind
// `pervasim -workload spec.txt` — generators compose in data, not code.
// The spec sets the run's Seed and Horizon.
type SpecConfig struct {
	Run
	Spec *workload.Spec
}

// SpecRun is a wired spec-driven scenario.
type SpecRun struct {
	Wired
}

// NewSpecRun builds the harness the spec describes. The sensor fleet is
// sized by the spec's `objects` directive, the generators' reach, and the
// materialized events, whichever is largest, so the spec's predicate can
// refer to every attribute directly (e.g. `sum(x) - sum(y) > 10`).
func NewSpecRun(cfg SpecConfig) (*SpecRun, error) {
	sp := cfg.Spec
	if sp == nil {
		return nil, fmt.Errorf("spec scenario: nil spec")
	}
	if sp.Predicate == "" {
		return nil, fmt.Errorf("spec scenario: spec declares no predicate")
	}
	pred, err := predicate.Parse(sp.Predicate)
	if err != nil {
		return nil, fmt.Errorf("spec scenario: predicate: %w", err)
	}
	var src workload.Source
	if cfg.Workload == nil {
		if src, err = sp.Source(); err != nil {
			return nil, err
		}
	}
	cfg.Seed, cfg.Horizon = sp.Seed, sp.Horizon
	return &SpecRun{Wired: build(cfg.Run, pred, max(sp.Objects, sp.MaxObject()+1), src)}, nil
}
