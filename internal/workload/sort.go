package workload

import (
	"math/bits"
	"slices"
)

// smallSort is the largest run Sort finishes by insertion: a whole slice
// of at most this many events, or one time bucket.
const smallSort = 32

// Sort orders events canonically, stably (same-key events keep their
// emission order): exactly the order slices.SortStableFunc(evs, compare)
// gives, in time linear in len(evs) when the instants spread out.
//
// One pass finds the earliest and latest instant and returns if the slice
// is already canonical. A short slice is finished by insertion in place.
// Otherwise each event goes to one of n+1 time buckets, bucket
// ⌊(At − min)·n / span⌋ for n events over a span of instants — a
// monotone map, so the buckets are in time order — by a stable counting
// scatter into one scratch slice, and each bucket is finished under
// compare: by insertion when it holds at most smallSort events, else by
// slices.SortStableFunc. Heavy ties (all events at one instant, say) thus
// cost what the merge sort alone would, plus O(n).
func Sort(evs []Event) {
	n := len(evs)
	if n < 2 {
		return
	}
	lo, hi, canonical := evs[0].At, evs[0].At, true
	for i := 1; i < n; i++ {
		at := evs[i].At
		lo, hi = min(lo, at), max(hi, at)
		canonical = canonical && compare(evs[i-1], evs[i]) <= 0
	}
	switch {
	case canonical:
		return
	case n <= smallSort:
		insertionSort(evs)
		return
	case lo == hi:
		slices.SortStableFunc(evs, compare)
		return
	}
	// span is hi − lo as an unsigned word, exact for any two int64s; the
	// 128-bit product (At − lo)·n is below span·2⁶⁴, so the quotient fits.
	span := uint64(hi) - uint64(lo)
	bucket := func(at int64) uint64 {
		h, l := bits.Mul64(uint64(at)-uint64(lo), uint64(n))
		q, _ := bits.Div64(h, l, span)
		return q
	}
	// start[b+1] counts bucket b's events, then the prefix sum makes
	// start[b] the first slot of bucket b; the scatter advances it.
	start := make([]int, n+2)
	for i := range evs {
		start[bucket(int64(evs[i].At))+1]++
	}
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	out := make([]Event, n)
	for i := range evs {
		b := bucket(int64(evs[i].At))
		out[start[b]] = evs[i]
		start[b]++
	}
	// After the scatter start[b] is the end of bucket b.
	from := 0
	for b := 0; b <= n; b++ {
		run := out[from:start[b]]
		if len(run) <= smallSort {
			insertionSort(run)
		} else {
			slices.SortStableFunc(run, compare)
		}
		from = start[b]
	}
	copy(evs, out)
}

// insertionSort sorts evs under compare in place, stably.
func insertionSort(evs []Event) {
	for i := 1; i < len(evs); i++ {
		x := evs[i]
		j := i
		for ; j > 0 && compare(x, evs[j-1]) < 0; j-- {
			evs[j] = evs[j-1]
		}
		evs[j] = x
	}
}
