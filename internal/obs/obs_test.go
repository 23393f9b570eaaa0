package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"pervasive/internal/sim"
)

func TestNoopRegistryIsInert(t *testing.T) {
	var r *Registry // == Noop
	r.Counter("c").Inc()
	r.Counter("c").Add(5)
	r.Gauge("g").Set(3)
	r.Histogram("h", nil).Observe(1.5)
	sp := r.StartSpanAt("s", 10)
	sp.EndAt(20)
	r.SetNow("virtual", func() sim.Time { return 5 })
	r.RegisterCollector(func(*Registry) { t.Fatal("collector ran on noop") })
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms)+len(s.Spans) != 0 {
		t.Fatalf("noop snapshot not empty: %+v", s)
	}
	if r.Counter("c").Value() != 0 || r.Gauge("g").Value() != 0 {
		t.Fatal("noop instruments recorded values")
	}
}

func TestNoopAllocationFree(t *testing.T) {
	var r *Registry
	allocs := testing.AllocsPerRun(100, func() {
		r.Counter("c").Inc()
		r.Gauge("g").Set(1)
		r.Histogram("h", nil).Observe(2)
		r.StartSpanAt("s", 0).EndAt(1)
	})
	if allocs != 0 {
		t.Fatalf("noop path allocates %v per op", allocs)
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter %d", c.Value())
	}
	if r.Counter("events") != c {
		t.Fatal("counter not interned by name")
	}

	g := r.Gauge("depth")
	g.Set(7)
	g.Set(3)
	if g.Value() != 3 || g.Max() != 7 {
		t.Fatalf("gauge %d max %d", g.Value(), g.Max())
	}
	g.SetWithMax(1, 99)
	if g.Value() != 1 || g.Max() != 99 {
		t.Fatalf("gauge SetWithMax %d max %d", g.Value(), g.Max())
	}
}

func TestHistogramBucketsAndStats(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{10, 100, 1000})
	for _, v := range []float64{1, 10, 11, 500, 5000} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms %d", len(snap.Histograms))
	}
	hs := snap.Histograms[0]
	// Buckets: ≤10: {1,10}; ≤100: {11}; ≤1000: {500}; overflow: {5000}.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if hs.Counts[i] != w {
			t.Fatalf("bucket %d = %d want %d (%v)", i, hs.Counts[i], w, hs.Counts)
		}
	}
	if hs.Count != 5 || hs.Sum != 5522 || hs.Min != 1 || hs.Max != 5000 {
		t.Fatalf("stats %+v", hs)
	}
	if m := hs.Mean(); m != 5522.0/5 {
		t.Fatalf("mean %v", m)
	}
	// Rank ⌈0.5·5⌉ = 3 lands on the single observation in the (10,100]
	// bucket; midpoint interpolation gives 10 + 0.5·90 = 55.
	if q := hs.Quantile(0.5); q != 55 {
		t.Fatalf("p50 %v", q)
	}
	if q := hs.Quantile(0.99); q != 5000 {
		t.Fatalf("p99 %v (expect observed max from overflow bucket)", q)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	// Empty histogram: every quantile is 0.
	empty := HistSnap{Bounds: []float64{10, 100}, Counts: []uint64{0, 0, 0}}
	for _, q := range []float64{0, 0.5, 1} {
		if v := empty.Quantile(q); v != 0 {
			t.Fatalf("empty q%.1f = %v", q, v)
		}
	}

	// All mass in the overflow bucket: only the observed max is known.
	over := HistSnap{
		Bounds: []float64{10},
		Counts: []uint64{0, 4},
		Count:  4, Min: 50, Max: 900,
	}
	for _, q := range []float64{0.01, 0.5, 1} {
		if v := over.Quantile(q); v != 900 {
			t.Fatalf("overflow q%v = %v, want Max", q, v)
		}
	}

	// First bucket interpolates from the observed Min, not from zero, and
	// results clamp into [Min, Max].
	first := HistSnap{
		Bounds: []float64{100},
		Counts: []uint64{4, 0},
		Count:  4, Min: 20, Max: 80,
	}
	// Rank 2, frac (2-0.5)/4 = 0.375 → 20 + 0.375·80 = 50.
	if v := first.Quantile(0.5); v != 50 {
		t.Fatalf("first-bucket p50 = %v", v)
	}
	// Rank 4, frac 0.875 → 90, clamped to Max=80.
	if v := first.Quantile(1); v != 80 {
		t.Fatalf("clamp to max = %v", v)
	}
}

func TestSpansVirtualTime(t *testing.T) {
	r := NewRegistry()
	var now sim.Time = 100
	r.SetNow("virtual", func() sim.Time { return now })
	sp := r.StartSpanAt("run", r.Now())
	now = 350
	sp.EndAt(r.Now())
	snap := r.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].Start != 100 || snap.Spans[0].End != 350 {
		t.Fatalf("spans %+v", snap.Spans)
	}
	if snap.TimeBase != "virtual" || snap.At != 350 {
		t.Fatalf("time base %q at %v", snap.TimeBase, snap.At)
	}
	found := false
	for _, h := range snap.Histograms {
		if h.Name == "span.run" {
			found = true
			if h.Count != 1 || h.Sum != 250 {
				t.Fatalf("span histogram %+v", h)
			}
		}
	}
	if !found {
		t.Fatal("no span.run histogram")
	}
}

func TestSpanLogRing(t *testing.T) {
	r := NewRegistry()
	r.spanCap = 4
	for i := 0; i < 10; i++ {
		r.StartSpanAt("s", sim.Time(i)).EndAt(sim.Time(i + 1))
	}
	snap := r.Snapshot()
	if len(snap.Spans) != 4 {
		t.Fatalf("span log %d", len(snap.Spans))
	}
	// Oldest-first unroll: spans 6..9 survive.
	for i, sp := range snap.Spans {
		if sp.Start != sim.Time(6+i) {
			t.Fatalf("span order %+v", snap.Spans)
		}
	}
}

func TestCollector(t *testing.T) {
	r := NewRegistry()
	executed := int64(0)
	r.RegisterCollector(func(r *Registry) {
		r.Counter("kernel.executed").Store(executed)
		r.Gauge("kernel.depth").SetWithMax(2, 9)
	})
	executed = 42
	snap := r.Snapshot()
	var gotC int64
	for _, c := range snap.Counters {
		if c.Name == "kernel.executed" {
			gotC = c.Value
		}
	}
	if gotC != 42 {
		t.Fatalf("collected counter %d", gotC)
	}
	for _, g := range snap.Gauges {
		if g.Name == "kernel.depth" && (g.Value != 2 || g.Max != 9) {
			t.Fatalf("collected gauge %+v", g)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	r.Gauge("b").Set(5)
	r.Histogram("c", []float64{1, 2}).Observe(1.5)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Counters) != 1 || back.Counters[0].Value != 3 {
		t.Fatalf("round trip %+v", back)
	}
}

func TestWriteTable(t *testing.T) {
	r := NewRegistry()
	r.Counter("net.sent").Add(12)
	r.Gauge("heap.depth").Set(4)
	r.Histogram("delay_us", []float64{10, 100}).Observe(42)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"net.sent", "12", "heap.depth", "delay_us"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(int64(j))
				r.Histogram("h", nil).Observe(float64(j))
			}
		}()
	}
	wg.Wait()
	if v := r.Counter("c").Value(); v != 8000 {
		t.Fatalf("concurrent counter %d", v)
	}
	if v := r.Histogram("h", nil).count.Load(); v != 8000 {
		t.Fatalf("concurrent histogram %d", v)
	}
	if v := r.Gauge("g").Max(); v != 999 {
		t.Fatalf("concurrent gauge max %d", v)
	}
}

func TestServeMetricsEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Counter("live.sends").Add(7)
	srv, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("endpoint returned invalid JSON: %v\n%s", err, body)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 7 {
		t.Fatalf("endpoint snapshot %+v", snap)
	}
}
