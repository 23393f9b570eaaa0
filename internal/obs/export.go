package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"text/tabwriter"

	"pervasive/internal/sim"
)

// CounterSnap is one counter in a snapshot.
type CounterSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnap is one gauge in a snapshot.
type GaugeSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
	Max   int64  `json:"max"`
}

// HistSnap is one histogram in a snapshot. Counts[i] pairs with
// Bounds[i]; the final element of Counts is the overflow bucket.
type HistSnap struct {
	Name   string    `json:"name"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min,omitempty"`
	Max    float64   `json:"max,omitempty"`
}

// UnmarshalJSON decodes a histogram and holds it to its shape: one count
// per bound plus the overflow bucket. Checking each histogram as it decodes
// is what stops a list of empty objects in a hostile file from costing its
// 96 bytes apiece before anything looks at them.
func (h *HistSnap) UnmarshalJSON(b []byte) error {
	type plain HistSnap
	if err := json.Unmarshal(b, (*plain)(h)); err != nil {
		return err
	}
	if len(h.Counts) != len(h.Bounds)+1 {
		return fmt.Errorf("obs: histogram %q has %d counts for %d bounds, want one more", h.Name, len(h.Counts), len(h.Bounds))
	}
	return nil
}

// Mean returns the mean observation (0 when empty).
func (h HistSnap) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q∈[0,1] quantile by locating the bucket where
// the cumulative count crosses rank ⌈q·Count⌉ and interpolating linearly
// inside it, assuming observations are uniform within a bucket. The first
// bucket's lower edge is the observed minimum; the overflow bucket reports
// the observed maximum (its upper edge is unknown). Results are clamped to
// [Min, Max], and an empty histogram reports 0.
func (h HistSnap) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.Count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		prev := cum
		cum += c
		if cum < target {
			continue
		}
		if i >= len(h.Bounds) {
			return h.Max // overflow bucket: no finite upper edge
		}
		lo := h.Min
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		hi := h.Bounds[i]
		// Fraction of this bucket's mass below the target rank. The
		// −0.5 places each observation at its rank's midpoint, so the
		// estimate lands inside the bucket rather than on its edges.
		frac := (float64(target) - 0.5 - float64(prev)) / float64(c)
		v := lo + frac*(hi-lo)
		return math.Min(math.Max(v, h.Min), h.Max)
	}
	return h.Max
}

// SpanSnap is one completed span.
type SpanSnap struct {
	Name  string   `json:"name"`
	Start sim.Time `json:"start"`
	End   sim.Time `json:"end"`
}

// Snapshot is a point-in-time export of a registry, serializable to
// JSON (and embeddable in a trace's metrics block).
type Snapshot struct {
	// TimeBase is "virtual" (DES) or "wall-us" (live), per SetNow. It is
	// always emitted so consumers (tracedump -diff in particular) can
	// refuse to compare durations across mismatched bases.
	TimeBase   string        `json:"time_base"`
	At         sim.Time      `json:"at,omitempty"`
	Counters   []CounterSnap `json:"counters,omitempty"`
	Gauges     []GaugeSnap   `json:"gauges,omitempty"`
	Histograms []HistSnap    `json:"histograms,omitempty"`
	Spans      []SpanSnap    `json:"spans,omitempty"`
}

// Snapshot runs the registered collectors and exports every instrument,
// sorted by name. The Noop registry returns an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.RLock()
	collectors := append([]Collector(nil), r.collectors...)
	r.mu.RUnlock()
	for _, c := range collectors {
		c(r)
	}

	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{TimeBase: r.TimeBase(), At: r.Now()}
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterSnap{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: name, Value: g.Value(), Max: g.Max()})
	}
	for name, h := range r.hists {
		s.Histograms = append(s.Histograms, histSnap(name, h))
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })

	r.spanMu.Lock()
	// Unroll the ring so spans appear oldest-first.
	s.Spans = append(s.Spans, r.spanLog[r.spanNext:]...)
	s.Spans = append(s.Spans, r.spanLog[:r.spanNext]...)
	r.spanMu.Unlock()
	return s
}

// histSnap materializes one histogram's export record.
func histSnap(name string, h *Histogram) HistSnap {
	hs := HistSnap{
		Name:   name,
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		hs.Counts[i] = h.counts[i].Load()
	}
	if hs.Count > 0 {
		hs.Min = math.Float64frombits(h.min.Load())
		hs.Max = math.Float64frombits(h.max.Load())
	}
	return hs
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(s)
}

// WriteTable renders a human-readable metrics table: counters, gauges
// with watermarks, and histogram summaries (count/mean/p50/p90/p99/max).
func (s Snapshot) WriteTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if s.TimeBase != "" {
		fmt.Fprintf(tw, "-- metrics @ %v (%s time) --\n", s.At, s.TimeBase)
	} else {
		fmt.Fprintln(tw, "-- metrics --")
	}
	if len(s.Counters) > 0 {
		fmt.Fprintln(tw, "counter\tvalue")
		for _, c := range s.Counters {
			fmt.Fprintf(tw, "%s\t%d\n", c.Name, c.Value)
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintln(tw, "gauge\tvalue\tmax")
		for _, g := range s.Gauges {
			fmt.Fprintf(tw, "%s\t%d\t%d\n", g.Name, g.Value, g.Max)
		}
	}
	if len(s.Histograms) > 0 {
		fmt.Fprintln(tw, "histogram\tcount\tmean\tp50\tp90\tp99\tmax")
		for _, h := range s.Histograms {
			fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.0f\t%.0f\t%.0f\t%.0f\n",
				h.Name, h.Count, h.Mean(),
				h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Max)
		}
	}
	if len(s.Spans) > 0 {
		fmt.Fprintf(tw, "spans logged\t%d\n", len(s.Spans))
	}
	return tw.Flush()
}

// ---- live export: expvar + HTTP ----

var (
	expvarMu        sync.Mutex
	expvarPublished = map[string]bool{}
)

// PublishExpvar exposes the registry's snapshot as an expvar variable.
// Publishing the same name twice is a no-op (expvar itself would panic);
// only the first registry wins for a given name.
func (r *Registry) PublishExpvar(name string) {
	if r == nil {
		return
	}
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if expvarPublished[name] {
		return
	}
	expvarPublished[name] = true
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

// Handler returns an http.Handler serving the snapshot as JSON.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if r == nil {
			http.Error(w, "metrics disabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = r.Snapshot().WriteJSON(w)
	})
}

// MetricsServer is a running metrics HTTP endpoint.
type MetricsServer struct {
	// Addr is the bound listen address (useful with ":0").
	Addr string
	srv  *http.Server
}

// Close shuts the endpoint down.
func (m *MetricsServer) Close() error {
	if m == nil || m.srv == nil {
		return nil
	}
	return m.srv.Close()
}

// Serve starts an HTTP endpoint exposing the registry at /metrics (JSON
// snapshot) and the process expvars at /debug/vars. It returns once the
// listener is bound; the server runs until Close.
func (r *Registry) Serve(addr string) (*MetricsServer, error) {
	if r == nil {
		return nil, fmt.Errorf("obs: cannot serve the Noop registry")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return &MetricsServer{Addr: ln.Addr().String(), srv: srv}, nil
}
