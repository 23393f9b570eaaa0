package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// sampleStd is the unbiased standard deviation of xs.
func sampleStd(xs []float64) float64 {
	var sum, ss float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

func TestOnlineAgainstDirect(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	var o Online
	sum := 0.0
	for _, x := range xs {
		o.Add(x)
		sum += x
	}
	mean := sum / float64(len(xs))
	if math.Abs(o.Mean()-mean) > 1e-12 {
		t.Fatalf("online mean %.6f direct %.6f", o.Mean(), mean)
	}
	if o.Max() != 9 {
		t.Fatalf("max = %v", o.Max())
	}
}

func TestOnlineEmptyAndSingle(t *testing.T) {
	var o Online
	if o.Mean() != 0 || o.Max() != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
	o.Add(7)
	if o.Mean() != 7 || o.Max() != 7 {
		t.Fatal("single sample stats wrong")
	}
}

func TestOnlineMeanWithinBoundsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var o Online
		lo, hi := math.Inf(1), math.Inf(-1)
		ok := true
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true // skip degenerate inputs
			}
			// Avoid float overflow in the running mean's differences.
			if math.Abs(x) > 1e100 {
				return true
			}
			o.Add(x)
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		if len(xs) == 0 {
			return true
		}
		m := o.Mean()
		ok = ok && m >= lo-1e-9*(1+math.Abs(lo)) && m <= hi+1e-9*(1+math.Abs(hi))
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := Percentile(xs, 0); p != 1 {
		t.Fatalf("p0 = %v", p)
	}
	if p := Percentile(xs, 1); p != 10 {
		t.Fatalf("p100 = %v", p)
	}
	if p := Percentile(xs, 0.5); math.Abs(p-5.5) > 1e-12 {
		t.Fatalf("p50 = %v, want 5.5", p)
	}
	if p := Percentile([]float64{42}, 0.7); p != 42 {
		t.Fatalf("single-element percentile = %v", p)
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Fatal("empty percentile should be NaN")
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	r := NewRNG(99)
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) < 2 {
			return true
		}
		sort.Float64s(xs)
		p1 := r.Float64()
		p2 := r.Float64()
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return Percentile(xs, p1) <= Percentile(xs, p2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
