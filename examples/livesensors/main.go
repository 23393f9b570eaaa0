// Live engine demo: the same strobe-clock protocols running on real
// goroutines and channels instead of the deterministic simulator — each
// sensor process is a goroutine, each link delivery a timer-delayed
// channel send, exactly the asynchronous message-passing system of the
// paper's Section 2 realized in Go's concurrency model.
package main

import (
	"fmt"
	"time"

	pervasive "pervasive"
)

func main() {
	nw := pervasive.StartLive(pervasive.LiveConfig{
		N:    3,
		Seed: 1,
		Kind: pervasive.VectorStrobe,
		// Wall-clock link delays of 0.2–1 ms.
		Delay: pervasive.DeltaBounded(pervasive.Millisecond),
		Pred:  pervasive.MustParsePredicate("sum(x) >= 2"),
	})

	// Drive the world from the outside: three "rooms" become occupied and
	// free with real sleeps between events.
	occupy := func(i int, dwell time.Duration) {
		nw.Node(i).Sense("x", 1)
		time.Sleep(dwell)
		nw.Node(i).Sense("x", 0)
	}

	fmt.Println("live run: 3 goroutine sensors, predicate sum(x) >= 2")
	occupy(0, 30*time.Millisecond) // alone: predicate false
	time.Sleep(10 * time.Millisecond)

	nw.Node(0).Sense("x", 1) // rooms 0 and 1 together: predicate true
	time.Sleep(5 * time.Millisecond)
	nw.Node(1).Sense("x", 1)
	time.Sleep(40 * time.Millisecond)
	nw.Node(0).Sense("x", 0)
	nw.Node(1).Sense("x", 0)
	time.Sleep(10 * time.Millisecond)

	go occupy(1, 50*time.Millisecond) // a second episode, concurrently driven
	time.Sleep(5 * time.Millisecond)
	go occupy(2, 50*time.Millisecond)
	time.Sleep(80 * time.Millisecond)

	res := nw.Stop(30*time.Millisecond, 10*pervasive.Millisecond)

	fmt.Printf("ground truth: predicate held %d times in %v of wall time\n",
		len(res.Truth), res.Horizon)
	fmt.Printf("detected: %d occurrences over %d strobe transmissions (%d bytes)\n",
		len(res.Occurrences), res.Net.Sent, res.Net.Bytes)
	for i, o := range res.Occurrences {
		fmt.Printf("  #%d [%v .. %v] borderline=%v\n", i+1, o.Start, o.End, o.Borderline)
	}
	fmt.Printf("score: %v\n", res.Confusion)
}
