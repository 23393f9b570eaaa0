package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"pervasive/internal/stats"
)

// sample is what one rep cost the process, measured from outside: the
// window opens after a forced GC (so every rep starts from the same heap
// state) and closes before the one that sizes the live heap.
type sample struct {
	wallS, cpuS     float64
	allocMB         float64
	mallocsK        float64
	liveHeapMB      float64
	gcCycles, gcCPU float64
}

const mb = 1 << 20

// processCPU returns user+system CPU seconds consumed by this process.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

var gcSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readGC() (cycles, cpu float64) {
	metrics.Read(gcSamples)
	if gcSamples[0].Value.Kind() == metrics.KindUint64 {
		cycles = float64(gcSamples[0].Value.Uint64())
	}
	if gcSamples[1].Value.Kind() == metrics.KindFloat64 {
		cpu = gcSamples[1].Value.Float64()
	}
	return cycles, cpu
}

// measure runs fn once and returns its cost. fn returns whatever the rep
// must keep alive (harness, results) while the live heap is sized.
func measure(fn func() any) sample {
	runtime.GC()
	var m0, m1 runtime.MemStats
	gc0, gcCPU0 := readGC()
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	start := time.Now()

	keep := fn()

	wall := time.Since(start)
	cpu1 := processCPU()
	runtime.ReadMemStats(&m1)
	gc1, gcCPU1 := readGC()

	// Twice: the first collection only moves sync.Pool contents to the
	// victim cache, the second frees them, so pooled scratch of whatever
	// size the rep happened to leave behind does not count as live.
	runtime.GC()
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	runtime.KeepAlive(keep)

	return sample{
		wallS:      wall.Seconds(),
		cpuS:       cpu1 - cpu0,
		allocMB:    float64(m1.TotalAlloc-m0.TotalAlloc) / mb,
		mallocsK:   float64(m1.Mallocs-m0.Mallocs) / 1e3,
		liveHeapMB: float64(m2.HeapAlloc) / mb,
		gcCycles:   gc1 - gc0,
		gcCPU:      gcCPU1 - gcCPU0,
	}
}

// dist is the summary printed beside every timing: with at most a dozen
// reps per run no tail percentile has ten samples beyond it, so only the
// median and the range are reported.
type dist struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(v []float64) dist {
	if len(v) == 0 {
		return dist{}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return dist{Median: stats.Percentile(s, 0.5), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

func column[T any](xs []T, get func(T) float64) dist {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = get(x)
	}
	return summarize(v)
}

// drillNs times fn(n) — n iterations of one operation — in three batches
// and returns the median cost of one operation in nanoseconds.
func drillNs(n int, fn func(n int)) float64 {
	var v [3]float64
	for i := range v {
		start := time.Now()
		fn(n)
		v[i] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return summarize(v[:]).Median
}
