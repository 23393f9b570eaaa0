package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// tickShards builds s shards in which shard k runs k+1 events in every
// epoch of length look: k+1 tickers of period look.
func tickShards(s, workers int) *Shards {
	const look = 10 * Microsecond
	sh := NewShards(s, look, 1)
	sh.SetWorkers(workers)
	for k := 0; k < s; k++ {
		e := sh.Engine(k)
		for i := 0; i <= k; i++ {
			var tick Handler
			tick = func(now Time) { e.At(now+look, tick) }
			e.At(look, tick)
		}
	}
	return sh
}

// runRecovered runs sh to until and returns what a handler panicked with,
// or nil.
func runRecovered(sh *Shards, until Time) (v any) {
	defer func() { v = recover() }()
	sh.Run(until)
	return nil
}

// onHelper reports that the caller runs on a crew helper's goroutine.
func onHelper() bool {
	buf := make([]byte, 8<<10)
	return bytes.Contains(buf[:runtime.Stack(buf, false)], []byte("(*crew).help"))
}

// TestCrewPanicReachesCaller: a handler's panic reaches Run's caller, where
// a recover sees the value it was raised with, at W = 1 and at W = 2 —
// also when the handler ran on a helper, whose goroutine would otherwise
// take the process down past any recover. At W = 2 one other shard's event
// of the same epoch holds the coordinator, when it runs there, until the
// panicking handler has started, so the helper runs it.
func TestCrewPanicReachesCaller(t *testing.T) {
	type boom struct{ shard int }
	const at = 205 * Microsecond // an epoch after the crew is up
	for _, w := range []int{1, 2} {
		helped := false
		wantHelped := w > 1 && runtime.GOMAXPROCS(0) > 1
		for try := 0; try < 4 || (wantHelped && !helped && try < 400); try++ {
			k := try % 4
			sh := tickShards(4, w)
			want := &boom{k}
			var started atomic.Bool
			sh.Engine(k).At(at, func(Time) {
				helped = helped || onHelper()
				started.Store(true)
				panic(want)
			})
			if wantHelped {
				sh.Engine(3-k/3).At(at, func(Time) {
					for deadline := time.Now().Add(time.Second); !onHelper() && !started.Load() && time.Now().Before(deadline); {
					}
				})
			}
			if got := runRecovered(sh, Millisecond); got != want {
				t.Fatalf("W=%d, panic on shard %d: recovered %v, want %v", w, k, got, want)
			}
		}
		if wantHelped && !helped {
			t.Fatalf("W=%d: no handler panic ran on a helper in 400 runs", w)
		}
	}
}

// TestCrewHelperGoexitReachesCaller: a handler that ends its goroutine with
// runtime.Goexit (t.Fatal called from a handler) on a helper leaves its
// shard counted, so the barrier completes and Run panics on the caller
// instead of waiting forever for the shard.
func TestCrewHelperGoexitReachesCaller(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("no helper starts on one processor")
	}
	const at = 205 * Microsecond
	for try := 0; try < 400; try++ {
		sh := tickShards(4, 2)
		var exited atomic.Bool
		sh.Engine(0).At(at, func(Time) {
			if onHelper() {
				exited.Store(true)
				runtime.Goexit()
			}
		})
		sh.Engine(3).At(at, func(Time) {
			for deadline := time.Now().Add(time.Second); !onHelper() && !exited.Load() && time.Now().Before(deadline); {
			}
		})
		got := runRecovered(sh, Millisecond)
		if !exited.Load() {
			continue // shard 0 ran on the coordinator
		}
		if msg, _ := got.(string); !strings.Contains(msg, "Goexit") {
			t.Fatalf("recovered %v after a Goexit on a helper, want the crew's Goexit panic", got)
		}
		return
	}
	t.Fatal("shard 0 never ran on a helper in 400 runs")
}

// TestCrewLeavesNoGoroutine: the helpers a Run starts are gone once it
// returns, also when it returns by a handler's panic.
func TestCrewLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		pingLog(t, 12, 4, 40, 4)
		sh := tickShards(4, 4)
		sh.Engine(i).At(55*Microsecond, func(Time) { panic("boom") })
		if got := runRecovered(sh, Millisecond); got != "boom" {
			t.Fatalf("recovered %v, want boom", got)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the runs, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCrewUnderOneProcessor: Workers above the processors finishes, with
// W = 1's logs, both when the run starts on one processor and when the
// processors drop to one while a crew of three helpers is running — every
// member then waits for members that cannot run until it parks.
func TestCrewUnderOneProcessor(t *testing.T) {
	ref := pingLog(t, 12, 4, 40, 1)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	drop := func(sh *Shards) {
		sh.Engine(1).At(5*Millisecond, func(Time) { runtime.GOMAXPROCS(1) })
	}
	for _, c := range []struct {
		name  string
		procs int
		setup []func(*Shards)
	}{
		{"GOMAXPROCS=1", 1, nil},
		{"drop to 1 mid-run", 4, []func(*Shards){drop}},
	} {
		runtime.GOMAXPROCS(c.procs)
		done := make(chan [][]Time, 1)
		go func() { done <- pingLog(t, 12, 4, 40, 4, c.setup...) }()
		select {
		case got := <-done:
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s: W=4 execution log diverged from W=1", c.name)
			}
		case <-time.After(time.Minute):
			t.Fatalf("%s: W=4 run did not finish within a minute", c.name)
		}
	}
}

// TestCrewEpochAllocations: a warm epoch over a crew — the claims, the
// handoffs both ways, a park when the processors run short (AllocsPerRun
// runs on one), the accounting — allocates nothing, timed or not.
func TestCrewEpochAllocations(t *testing.T) {
	sh := tickShards(4, 2)
	sh.Run(20 * sh.Lookahead())
	sh.startCrew(1)
	defer sh.stopCrew()
	for _, timed := range []bool{false, true} {
		sh.timed = timed
		allocs := testing.AllocsPerRun(50, func() {
			end := sh.floor + sh.Lookahead()
			sh.runEpoch(end)
			sh.floor = end
		})
		if allocs != 0 {
			t.Errorf("timed=%v: %v allocations per warm W=2 epoch, want 0", timed, allocs)
		}
	}
}

// TestShardAttribution: shard k runs k+1 events an epoch, so the claim
// order after the first epoch is 3, 2, 1, 0 and the imbalance is
// max/mean = 4/2.5 at every worker count; per-shard events add up to the
// total, and the wall-clock half stays zero until TimeEpochs.
func TestShardAttribution(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		for _, timed := range []bool{false, true} {
			sh := tickShards(4, w)
			if timed {
				sh.TimeEpochs()
			}
			if got := sh.Imbalance(); got != 1 {
				t.Fatalf("W=%d: Imbalance before a run = %v, want 1", w, got)
			}
			sh.Run(100 * sh.Lookahead())
			var sum uint64
			for k := 0; k < sh.N(); k++ {
				st := sh.Stat(k)
				if want := uint64(100 * (k + 1)); st.Events != want {
					t.Errorf("W=%d: shard %d ran %d events, want %d", w, k, st.Events, want)
				}
				if ran := st.Busy > 0; ran != timed || (!timed && st.Wait != 0) {
					t.Errorf("W=%d timed=%v: shard %d busy %v wait %v", w, timed, k, st.Busy, st.Wait)
				}
				sum += st.Events
			}
			if sum != sh.ExecutedTotal() {
				t.Errorf("W=%d: per-shard events sum to %d, ExecutedTotal %d", w, sum, sh.ExecutedTotal())
			}
			if got := sh.Imbalance(); got != 1.6 {
				t.Errorf("W=%d: Imbalance = %v, want 1.6", w, got)
			}
		}
	}
	sh := tickShards(4, 2)
	sh.Run(2 * sh.Lookahead())
	sh.startCrew(1)
	c := sh.crew
	sh.runEpoch(3 * sh.Lookahead())
	sh.stopCrew()
	var order []int32
	for _, slot := range c.order {
		order = append(order, slot.shard)
	}
	if want := []int32{3, 2, 1, 0}; !reflect.DeepEqual(order, want) {
		t.Errorf("claim order %v, want %v", order, want)
	}
}

// BenchmarkShardsEpoch prices one lockstep epoch of 4 shards running 16,
// 16, 16 and 32 events (the checker's shard runs about twice a band's),
// serially and over a crew: ns and allocations per epoch.
func BenchmarkShardsEpoch(b *testing.B) {
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("W=%d", w), func(b *testing.B) {
			const look = 10 * Microsecond
			sh := NewShards(4, look, 1)
			sh.SetWorkers(w)
			for k := 0; k < 4; k++ {
				e := sh.Engine(k)
				for i := 0; i < 16<<(k/3); i++ {
					var tick Handler
					tick = func(now Time) { e.At(now+look, tick) }
					e.At(look, tick)
				}
			}
			sh.Run(10 * look)
			b.ReportAllocs()
			b.ResetTimer()
			sh.Run(sh.Now() + Time(b.N)*look)
		})
	}
}
