// Package obs is the runtime observability layer shared by both
// execution engines: a named registry of atomic counters, gauges and
// fixed-bucket histograms, plus lightweight spans. It is stdlib-only and
// built for hot paths: every instrument method is safe on a nil receiver
// and compiles to a single predictable branch when instrumentation is
// off, so uninstrumented runs stay allocation-free.
//
// The Noop registry is a nil *Registry: obs.Noop.Counter("x").Inc() does
// nothing and allocates nothing. Components therefore hold resolved
// instrument pointers (possibly nil) rather than checking a flag.
//
// Time: spans measure whatever time base the caller passes — virtual
// sim.Time in the discrete-event engine, wall-clock microseconds in the
// live engine. A registry carries a time source (SetNow), read through
// Now() and stamped on snapshots; the DES harness installs the engine's
// virtual clock, the live engine installs wall-µs-since-start. Durations
// from the two engines are therefore not comparable unit-for-unit
// semantics-wise ("virtual" vs "wall-us"); snapshots always record which
// base was in use, and tools that compare spans across runs (tracedump
// -diff) refuse mismatched bases.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"pervasive/internal/sim"
)

// Noop is the disabled registry: all instruments derived from it are
// nil and every operation on them is a no-op.
var Noop *Registry

// Counter is a monotonically increasing atomic counter. The nil Counter
// discards all updates.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be ≥ 0 for the counter to stay monotonic; this is
// not enforced, collectors use Store instead).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Store overwrites the counter's value. It exists for collectors that
// mirror an externally maintained monotonic count into the registry.
func (c *Counter) Store(n int64) {
	if c != nil {
		c.v.Store(n)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value with a high-watermark. The nil Gauge
// discards all updates.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Set stores the current value and raises the watermark if exceeded.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
	g.bumpMax(n)
}

// SetWithMax stores both the current value and an externally tracked
// watermark (used by collectors whose component tracks its own peak,
// which snapshot-time sampling would miss).
func (g *Gauge) SetWithMax(cur, max int64) {
	if g == nil {
		return
	}
	g.v.Store(cur)
	g.bumpMax(max)
}

func (g *Gauge) bumpMax(n int64) {
	for {
		m := g.max.Load()
		if n <= m || g.max.CompareAndSwap(m, n) {
			return
		}
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max returns the high-watermark (0 for nil).
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

// Histogram is a fixed-bucket histogram with lock-free observation.
// Bucket i counts observations v with v ≤ Bounds[i] (and v > Bounds[i-1]);
// a final overflow bucket catches v > Bounds[len-1]. The nil Histogram
// discards all observations.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last is overflow
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	min    atomic.Uint64 // float64 bits, init +Inf
	max    atomic.Uint64 // float64 bits, init -Inf
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	h := &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.count.Add(1)
	addFloat(&h.sum, v)
	minFloat(&h.min, v)
	maxFloat(&h.max, v)
}

// Sum returns the sum of observations (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

func addFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if a.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func minFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if v >= math.Float64frombits(old) || a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func maxFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if v <= math.Float64frombits(old) || a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// LocalHist is an unsynchronized fixed-bucket histogram for
// single-goroutine hot paths (the DES kernel and its transport):
// Observe is a plain array increment with no atomics or CAS loops.
// Publish it into a shared Histogram at snapshot time with
// Histogram.CopyFrom inside a Collector. The nil LocalHist discards
// observations.
type LocalHist struct {
	bounds []float64
	counts []uint64 // len(bounds)+1, last is overflow
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// NewLocalHist creates a local histogram; empty bounds default to
// DurationBuckets.
func NewLocalHist(bounds []float64) *LocalHist {
	if len(bounds) == 0 {
		bounds = DurationBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &LocalHist{
		bounds: b, counts: make([]uint64, len(b)+1),
		min: math.Inf(1), max: math.Inf(-1),
	}
}

// Observe records one sample. The bucket search is an open-coded
// binary search: this sits on the DES kernel's per-message path, where
// sort.Search's closure indirection alone would blow the <5% overhead
// budget (see BenchmarkDESKernelObs).
func (h *LocalHist) Observe(v float64) {
	if h == nil {
		return
	}
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// CopyFrom overwrites h's state with l's. Both histograms must share
// the same bucket bounds; it panics otherwise, which always indicates
// an instrumentation bug.
func (h *Histogram) CopyFrom(l *LocalHist) {
	if h == nil || l == nil {
		return
	}
	if len(h.counts) != len(l.counts) {
		panic("obs: CopyFrom bucket count mismatch")
	}
	for i := range l.counts {
		h.counts[i].Store(l.counts[i])
	}
	h.count.Store(l.count)
	h.sum.Store(math.Float64bits(l.sum))
	h.min.Store(math.Float64bits(l.min))
	h.max.Store(math.Float64bits(l.max))
}

// DurationBuckets are the default bounds (in µs) for delay and span
// histograms: exponential from 1 µs to ~100 s.
var DurationBuckets = []float64{
	1, 2, 5, 10, 20, 50, 100, 200, 500,
	1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5,
	1e6, 2e6, 5e6, 1e7, 2e7, 5e7, 1e8,
}

// Span is one in-flight timed operation. Spans are values — starting and
// ending one performs no allocation beyond the registry's bounded span
// log entry. The zero Span (from a nil registry) is inert.
type Span struct {
	reg   *Registry
	name  string
	start sim.Time
}

// EndAt closes the span at the given time, recording its duration into
// the histogram "span.<name>" and appending it to the registry's bounded
// span log.
func (s Span) EndAt(at sim.Time) {
	if s.reg == nil {
		return
	}
	s.reg.Histogram("span."+s.name, DurationBuckets).Observe(float64(at - s.start))
	s.reg.logSpan(SpanSnap{Name: s.name, Start: s.start, End: at})
}

// Collector pushes externally maintained values into the registry. The
// single-threaded DES kernel keeps plain (non-atomic) counters on its
// own hot path and registers a collector to publish them; collectors run
// at Snapshot time.
type Collector func(r *Registry)

// Registry is a named set of instruments. Instruments are created on
// first use and live for the registry's lifetime; resolving the same
// name twice returns the same instrument. All methods are safe for
// concurrent use and safe on a nil receiver (the Noop registry).
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	collectors []Collector

	nowMu sync.RWMutex
	now   func() sim.Time
	// TimeBase documents which clock SetNow installed ("virtual" or
	// "wall-us"); recorded in snapshots.
	timeBase string

	spanMu   sync.Mutex
	spanLog  []SpanSnap
	spanNext int
	spanCap  int
}

// NewRegistry creates an enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		spanCap:  256,
	}
}

// Counter returns the named counter, creating it if needed. Returns nil
// on the Noop registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds if needed. An existing histogram keeps its original
// bounds regardless of the bounds argument.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		if len(bounds) == 0 {
			bounds = DurationBuckets
		}
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// RegisterCollector adds a collector invoked at every Snapshot.
func (r *Registry) RegisterCollector(c Collector) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, c)
	r.mu.Unlock()
}

// SetNow installs the registry's time source and labels its base
// ("virtual" for the DES engine, "wall-us" for the live engine).
func (r *Registry) SetNow(base string, fn func() sim.Time) {
	if r == nil {
		return
	}
	r.nowMu.Lock()
	r.now, r.timeBase = fn, base
	r.nowMu.Unlock()
}

// Now returns the registry's current time, or 0 with no source set.
func (r *Registry) Now() sim.Time {
	if r == nil {
		return 0
	}
	r.nowMu.RLock()
	fn := r.now
	r.nowMu.RUnlock()
	if fn == nil {
		return 0
	}
	return fn()
}

// TimeBase returns the label passed to SetNow ("" if unset).
func (r *Registry) TimeBase() string {
	if r == nil {
		return ""
	}
	r.nowMu.RLock()
	defer r.nowMu.RUnlock()
	return r.timeBase
}

// StartSpanAt opens a span at an explicit time.
func (r *Registry) StartSpanAt(name string, at sim.Time) Span {
	if r == nil {
		return Span{}
	}
	return Span{reg: r, name: name, start: at}
}

func (r *Registry) logSpan(s SpanSnap) {
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	if len(r.spanLog) < r.spanCap {
		r.spanLog = append(r.spanLog, s)
		return
	}
	r.spanLog[r.spanNext] = s
	r.spanNext = (r.spanNext + 1) % r.spanCap
}
