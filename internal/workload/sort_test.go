package workload

import (
	"math"
	"slices"
	"sort"
	"testing"

	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// The regimes of Sort the fixed-seed draw must each reach.
const (
	sortCanonical = iota // the input is already canonical: the early return
	sortSmall            // at most smallSort events, sorted by insertion
	sortBuckets          // more, over more than one instant: the bucket path
	sortOverfull         // more than smallSort events at one instant: a bucket past it
	sortFullSpan         // instants at both math.MinInt64 and math.MaxInt64
	sortRepeats          // repeated (At, Obj, Attr) keys, told apart only by stability
	sortCases
)

// sortVsStable decodes data into an event slice and holds Sort to
// sort.SliceStable under compare on it. data[0] picks the count: below
// 96, n = data[0] % 33; from 96 up, n = 33 + 8·(data[0] − 96), up to
// 1305. data[1]&3 picks the instants: 0 draws from eight instants
// (heavy ties), 1 from 10·n, 2 from the whole int64 range with both ends
// present, 3 clusters all but two events within four microseconds of one
// instant and flings the two far away. data[1]&4 hands Sort its own
// answer. data[2] sets the key density: 1 + data[2]%8 objects and
// 1 + (data[2]>>3)%3 attributes. Each event's value is its draw index, so
// every event is distinct and only a stable sort puts repeated keys back
// in place. All bytes seed the draws.
func sortVsStable(t *testing.T, data []byte) (seen [sortCases]int) {
	t.Helper()
	if len(data) < 3 {
		return seen
	}
	var seed uint64
	for _, b := range data {
		seed = seed*131 + uint64(b)
	}
	r := stats.NewRNG(seed)
	n := int(data[0]) % 33
	if data[0] >= 96 {
		n = 33 + 8*(int(data[0])-96)
	}
	attrs := []string{"p", "occupancy", "x"}[:1+int(data[2]>>3)%3]
	objs := 1 + int(data[2])%8
	base := sim.Time(int64(r.Uint64()))
	evs := make([]Event, n)
	for i := range evs {
		var at sim.Time
		switch data[1] & 3 {
		case 0:
			at = sim.Time(r.Intn(8))
		case 1:
			at = sim.Time(r.Intn(10 * n))
		case 2:
			at = sim.Time(int64(r.Uint64()))
		case 3:
			at = base + sim.Time(r.Intn(4))
			if base > math.MaxInt64-4 {
				at = base - sim.Time(r.Intn(4))
			}
		}
		evs[i] = Event{At: at, Obj: r.Intn(objs), Attr: attrs[r.Intn(len(attrs))], Val: float64(i)}
	}
	switch {
	case data[1]&3 == 2 && n >= 2:
		evs[r.Intn(n)].At = math.MinInt64
		evs[r.Intn(n)].At = math.MaxInt64
	case data[1]&3 == 3 && n >= 2:
		evs[r.Intn(n)].At = base / 2
		evs[r.Intn(n)].At = sim.Time(int64(r.Uint64()))
	}
	want := append([]Event(nil), evs...)
	sort.SliceStable(want, func(i, j int) bool { return compare(want[i], want[j]) < 0 })
	if data[1]&4 != 0 {
		copy(evs, want)
	}

	canonical := slices.IsSortedFunc(evs, compare)
	Sort(evs)
	for i := range evs {
		if evs[i] != want[i] {
			t.Fatalf("data %x: position %d of %d holds %+v, sort.SliceStable put %+v there", data, i, n, evs[i], want[i])
		}
	}

	switch {
	case canonical:
		seen[sortCanonical]++
		return seen
	case n <= smallSort:
		seen[sortSmall]++
	default:
		seen[sortBuckets]++
		ties, hasMin, hasMax := 1, false, false
		for i := range want {
			if i > 0 && want[i].At == want[i-1].At {
				ties++
			} else {
				ties = 1
			}
			if ties > smallSort {
				seen[sortOverfull] = 1
			}
			hasMin = hasMin || want[i].At == math.MinInt64
			hasMax = hasMax || want[i].At == math.MaxInt64
		}
		if hasMin && hasMax {
			seen[sortFullSpan]++
		}
	}
	for i := 1; i < n; i++ {
		if compare(want[i-1], want[i]) == 0 {
			seen[sortRepeats]++
			break
		}
	}
	return seen
}

// TestSortMatchesSliceStable is FuzzSort's property at a fixed seed: Sort
// gives exactly sort.SliceStable's order under compare — the
// implementation it replaced — on drawn slices that reach every regime
// at least 30 times: already canonical, short, bucketed, with a bucket
// past the insertion bound, over the full int64 range, and with repeated
// keys that only stability tells apart.
func TestSortMatchesSliceStable(t *testing.T) {
	r := stats.NewRNG(23)
	var seen [sortCases]int
	for trial := 0; trial < 600; trial++ {
		data := make([]byte, 3+r.Intn(6))
		for i := range data {
			data[i] = byte(r.Intn(256))
		}
		for c, k := range sortVsStable(t, data) {
			seen[c] += k
		}
	}
	t.Logf("regimes: %v", seen)
	for c, k := range seen {
		if k < 30 {
			t.Errorf("the draw reached regime %d only %d times", c, k)
		}
	}
}

// FuzzSort is the same body under the native fuzzer. The checked-in
// corpus in testdata/fuzz/FuzzSort has one entry per regime: canonical,
// small, buckets, overfull, full-span and repeats.
func FuzzSort(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sortVsStable(t, data)
	})
}

// fleetWide is the fleet-wide benchmark workload's generator: 65 536
// togglers with the scale scenario's dwells.
var fleetWide = TogglerFleet{Seed: 1, N: 65536, Attr: "p",
	MeanHigh: 1200 * sim.Millisecond, MeanLow: 400 * sim.Millisecond}

// BenchmarkSort sorts the fleet-wide stream (≈ 188 k events over 2 s) from
// its emission order: togglers in object order, each in time order.
func BenchmarkSort(b *testing.B) {
	root := stats.NewRNG(fleetWide.Seed)
	var emitted []Event
	for i := 0; i < fleetWide.N; i++ {
		tg := Toggler{Obj: i, Attr: fleetWide.Attr, MeanHigh: fleetWide.MeanHigh, MeanLow: fleetWide.MeanLow}
		emitted = tg.append(emitted, stats.NewRNG(root.Uint64()), 2*sim.Second)
	}
	evs := make([]Event, len(emitted))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(evs, emitted)
		Sort(evs)
	}
}

// sinkEvents keeps a benchmark's result alive.
var sinkEvents []Event

// BenchmarkTogglerFleetEvents materializes the fleet-wide stream.
func BenchmarkTogglerFleetEvents(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkEvents = fleetWide.Events(2 * sim.Second)
	}
}

// TestTogglerFleetAllocs: a fleet's stream is presized from its expected
// length, so materializing it is a handful of allocations — the output,
// the sort's scratch and bucket starts — not one per append doubling.
func TestTogglerFleetAllocs(t *testing.T) {
	g := fleetWide
	g.N = 4096
	if got := testing.AllocsPerRun(5, func() { g.Events(2 * sim.Second) }); got > 8 {
		t.Errorf("TogglerFleet.Events at N = %d, 2 s: %.0f allocations, want at most 8", g.N, got)
	}
}

// TestGeneratorDigestsPinned: every generator's stream at its fixed seed,
// as it stood before Sort changed implementation.
func TestGeneratorDigestsPinned(t *testing.T) {
	pinned := map[string]string{
		"admissions": "7cca182a47c5327f",
		"cohort":     "7fbb70059e9b2a18",
		"diurnal":    "bafaf5005332fc29",
		"hall":       "4be642349c2cfba7",
		"pareto":     "375a91cb87a09c7e",
		"toggler":    "90e6e4c76395231e",
		"walk":       "26a9e7746f41c913",
	}
	gens := allGenerators()
	if len(gens) != len(pinned) {
		t.Fatalf("%d generators, %d pinned digests", len(gens), len(pinned))
	}
	for name, g := range gens {
		if got := Digest(g.Events(2 * sim.Second))[:16]; got != pinned[name] {
			t.Errorf("%s: digest %s, pinned %s", name, got, pinned[name])
		}
	}
}
