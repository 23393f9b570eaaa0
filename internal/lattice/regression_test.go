package lattice

import (
	"testing"

	"pervasive/internal/clock"
	"pervasive/internal/sim"
)

// ragged builds an independent execution with counts[i] events on proc i.
func ragged(counts []int) *Execution {
	n := len(counts)
	e := &Execution{Stamps: make([][]clock.Vector, n), Times: make([][]sim.Time, n)}
	for i := 0; i < n; i++ {
		for k := 1; k <= counts[i]; k++ {
			v := clock.NewVector(n)
			v[i] = uint64(k)
			e.Stamps[i] = append(e.Stamps[i], v)
			e.Times[i] = append(e.Times[i], sim.Time(k*n+i))
		}
	}
	return e
}

// The prep cache must not serve a packed prep while forceStringKeys is
// on (the differential "strings" modes would silently re-test the
// packed engine), nor poison the cache with a fallback prep.
func TestForceStringsBypassesCachedPrep(t *testing.T) {
	e := independent(3, 2)
	if sv := e.Survey(SurveyOptions{}); sv.Count != 27 { // caches packed prep
		t.Fatalf("packed count %d want 27", sv.Count)
	}
	forceStringKeys = true
	if p := e.prep(); p.packed {
		t.Error("cached packed prep served while forceStringKeys is on")
	}
	if sv := e.Survey(SurveyOptions{}); sv.Count != 27 {
		t.Errorf("fallback count %d want 27", sv.Count)
	}
	forceStringKeys = false
	if p := e.prep(); !p.packed {
		t.Error("fallback prep poisoned the cache for the packed path")
	}
}

// Pooled survey scratch from a narrower execution must be regrown when
// a wider one reuses it: the non-SWAR path decodes cuts into a buffer
// sized for n.
func TestScratchReuseAcrossWidths(t *testing.T) {
	// n=16, maxP=15: value bits 4, 16*4=64 -> packed; guard geometry
	// 16*6=96>64 -> non-SWAR (the expandPairs path).
	c1 := make([]int, 16)
	for i := range c1 {
		c1[i] = 1
	}
	c1[0] = 15
	// n=21, maxP=7: 21*3=63 -> packed, 21*5=105>64 -> non-SWAR again,
	// but five processes wider than e1.
	c2 := make([]int, 21)
	for i := range c2 {
		c2[i] = 1
	}
	c2[0] = 7
	// Independent events: the lattice is the full product, so the count
	// is prod(counts[i]+1).
	if sv := ragged(c1).Survey(SurveyOptions{}); sv.Count != 16<<15 {
		t.Fatalf("n=16 count %d want %d", sv.Count, 16<<15)
	}
	if sv := ragged(c2).Survey(SurveyOptions{}); sv.Count != 8<<20 {
		t.Fatalf("n=21 count %d want %d", sv.Count, 8<<20)
	}
}
