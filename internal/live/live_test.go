package live

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"pervasive/internal/core"
	"pervasive/internal/flight"
	"pervasive/internal/obs"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
)

// Live tests use generous margins: wall-clock scheduling is inherently
// jittery. Workloads hold values for tens of milliseconds while delays are
// sub-millisecond.

func TestLiveVectorDetectsConjunction(t *testing.T) {
	nw := Start(Config{
		N: 2, Seed: 1, Kind: core.VectorStrobe,
		Delay: sim.DeltaBounded{Min: 100, Max: 500}, // 0.1–0.5 ms
		Pred:  predicate.MustParse("x@0 == 1 && x@1 == 1"),
	})
	nw.Node(0).Sense("x", 1)
	time.Sleep(10 * time.Millisecond)
	nw.Node(1).Sense("x", 1)
	time.Sleep(30 * time.Millisecond)
	nw.Node(0).Sense("x", 0)
	res := nw.Stop(20*time.Millisecond, 5*sim.Millisecond)

	if len(res.Truth) != 1 {
		t.Fatalf("truth %v", res.Truth)
	}
	if res.Confusion.TP != 1 || res.Confusion.FN != 0 {
		t.Fatalf("confusion %+v occ=%v", res.Confusion, res.Occurrences)
	}
}

func TestLiveEveryOccurrence(t *testing.T) {
	nw := Start(Config{
		N: 1, Seed: 2, Kind: core.VectorStrobe,
		Delay: sim.Synchronous{},
		Pred:  predicate.MustParse("x@0 == 1"),
	})
	for k := 0; k < 3; k++ {
		nw.Node(0).Sense("x", 1)
		time.Sleep(15 * time.Millisecond)
		nw.Node(0).Sense("x", 0)
		time.Sleep(15 * time.Millisecond)
	}
	res := nw.Stop(20*time.Millisecond, 5*sim.Millisecond)
	if len(res.Truth) != 3 {
		t.Fatalf("truth %v", res.Truth)
	}
	if res.Confusion.TP != 3 {
		t.Fatalf("every-occurrence failed: %+v", res.Confusion)
	}
}

func TestLiveScalarWorks(t *testing.T) {
	nw := Start(Config{
		N: 2, Seed: 3, Kind: core.ScalarStrobe,
		Delay: sim.DeltaBounded{Min: 50, Max: 200},
		Pred:  predicate.MustParse("x@0 == 1 && x@1 == 1"),
	})
	nw.Node(0).Sense("x", 1)
	nw.Node(1).Sense("x", 1)
	time.Sleep(40 * time.Millisecond)
	nw.Node(0).Sense("x", 0)
	res := nw.Stop(20*time.Millisecond, 10*sim.Millisecond)
	if res.Confusion.TP != 1 {
		t.Fatalf("scalar live detection failed: %+v occ=%v", res.Confusion, res.Occurrences)
	}
}

func TestLiveMessageCounting(t *testing.T) {
	nw := Start(Config{
		N: 3, Seed: 4, Kind: core.VectorStrobe,
		Delay: sim.Synchronous{},
		Pred:  predicate.MustParse("x@0 == 1"),
	})
	nw.Node(0).Sense("x", 1)
	res := nw.Stop(20*time.Millisecond, sim.Millisecond)
	// One sense event → broadcast to 2 peers + checker = 3 transmissions.
	if res.Net.Sent != 3 {
		t.Fatalf("sent %d want 3", res.Net.Sent)
	}
	if res.Net.Bytes == 0 {
		t.Fatal("bytes not counted")
	}
}

func TestLiveStopIdempotentAndSafeAfter(t *testing.T) {
	nw := Start(Config{
		N: 2, Seed: 5, Kind: core.VectorStrobe,
		Delay: sim.Synchronous{},
		Pred:  predicate.MustParse("x@0 == 1"),
	})
	nw.Stop(time.Millisecond, sim.Millisecond)
	// Sense after stop must not deadlock or panic.
	done := make(chan struct{})
	go func() {
		nw.Node(0).Sense("x", 1)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Sense after Stop deadlocked")
	}
}

func TestLiveStartPanicsOnPhysical(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Start(Config{N: 1, Kind: core.PhysicalReport, Pred: predicate.MustParse("x@0 == 1")})
}

func TestLiveConcurrentSensesDoNotRace(t *testing.T) {
	// Hammer the network from many goroutines; run with -race in CI.
	nw := Start(Config{
		N: 4, Seed: 6, Kind: core.VectorStrobe,
		Delay: sim.DeltaBounded{Min: 10, Max: 100},
		Pred:  predicate.MustParse("sum(x) > 2"),
	})
	doneCh := make(chan struct{})
	for i := 0; i < 4; i++ {
		i := i
		go func() {
			for k := 0; k < 50; k++ {
				nw.Node(i).Sense("x", float64(k%2))
			}
			doneCh <- struct{}{}
		}()
	}
	for i := 0; i < 4; i++ {
		<-doneCh
	}
	res := nw.Stop(30*time.Millisecond, 5*sim.Millisecond)
	if res.Net.Sent == 0 {
		t.Fatal("no traffic recorded")
	}
}

func TestLiveObsMetricsAndEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	nw := Start(Config{
		N: 3, Seed: 7, Kind: core.VectorStrobe,
		Delay:       sim.DeltaBounded{Min: 10, Max: 100},
		Pred:        predicate.MustParse("sum(x) > 1"),
		Obs:         reg,
		MetricsAddr: "127.0.0.1:0",
	})
	if nw.Metrics == nil {
		t.Fatal("metrics endpoint did not start")
	}
	for i := 0; i < 3; i++ {
		nw.Node(i).Sense("x", 1)
	}
	time.Sleep(20 * time.Millisecond)

	// Scrape the live endpoint mid-run.
	resp, err := http.Get("http://" + nw.Metrics.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("endpoint JSON: %v\n%s", err, body)
	}
	if snap.TimeBase != "wall-us" {
		t.Fatalf("time base %q, want wall-us", snap.TimeBase)
	}

	res := nw.Stop(20*time.Millisecond, 5*sim.Millisecond)
	final := reg.Snapshot()
	counters := map[string]int64{}
	for _, c := range final.Counters {
		counters[c.Name] = c.Value
	}
	// 3 senses × (2 peers + checker) = 9 sends, published under the DES's
	// names.
	if counters["net.sent"] != res.Net.Sent || counters["net.sent"] != 9 {
		t.Fatalf("net.sent %d (res.Net.Sent %d)", counters["net.sent"], res.Net.Sent)
	}
	if counters["net.bytes"] != res.Net.Bytes || counters["net.delivered"] != res.Net.Delivered {
		t.Fatalf("net.bytes %d net.delivered %d, want %+v", counters["net.bytes"], counters["net.delivered"], res.Net)
	}
	if counters["live.checker_strobes"] != 3 {
		t.Fatalf("checker strobes %d", counters["live.checker_strobes"])
	}
	if counters["checker.strobes_applied"] == 0 {
		t.Fatal("checker instrumentation not wired in live mode")
	}

	// The endpoint is closed by Stop.
	if _, err := http.Get("http://" + nw.Metrics.Addr + "/metrics"); err == nil {
		t.Fatal("metrics endpoint still up after Stop")
	}
}

func TestLiveFlightRecorderDumpsDetection(t *testing.T) {
	fl := flight.NewConcurrent(3, 128) // 2 nodes + checker
	nw := Start(Config{
		N: 2, Seed: 8, Kind: core.VectorStrobe,
		Delay:  sim.DeltaBounded{Min: 100, Max: 500},
		Pred:   predicate.MustParse("x@0 == 1 && x@1 == 1"),
		Flight: fl,
	})
	nw.Node(0).Sense("x", 1)
	time.Sleep(10 * time.Millisecond)
	nw.Node(1).Sense("x", 1)
	time.Sleep(30 * time.Millisecond)
	nw.SignalDump("end-of-test")
	nw.Stop(20*time.Millisecond, 5*sim.Millisecond)

	dumps := nw.Dumps()
	if len(dumps) < 2 {
		t.Fatalf("got %d dumps, want detect + signal", len(dumps))
	}
	var detect *flight.Dump
	for _, d := range dumps {
		if d.Trigger == "detect" {
			detect = d
		}
	}
	if detect == nil {
		t.Fatal("no detection dump")
	}
	if detect.TimeBase != "wall-us" {
		t.Fatalf("dump time base %q, want wall-us", detect.TimeBase)
	}
	// The dump's happens-before DAG must validate even though live runs
	// are not deterministic: stamps, not timing, carry the causality.
	if issues := flight.BuildDAG(detect).Validate(); len(issues) != 0 {
		t.Fatalf("detection dump inconsistent: %v", issues)
	}
	kinds := map[string]int{}
	for _, ev := range detect.Events {
		kinds[ev.Kind]++
	}
	if kinds["sense"] == 0 || kinds["recv"] == 0 || kinds["apply"] == 0 || kinds["detect"] == 0 {
		t.Fatalf("dump missing event kinds: %v", kinds)
	}
}

func TestLiveFlightRequiresConcurrent(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on single-threaded recorder")
		}
	}()
	Start(Config{
		N: 1, Kind: core.VectorStrobe,
		Pred:   predicate.MustParse("x@0 == 1"),
		Flight: flight.New(2, 16),
	})
}
