package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws of 100", same)
	}
}

func TestRNGZeroSeedIsUsable(t *testing.T) {
	r := NewRNG(0)
	var allZero = true
	for i := 0; i < 10; i++ {
		if r.Uint64() != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Fatal("zero seed produced an all-zero stream")
	}
}

func TestForkIndependence(t *testing.T) {
	parent := NewRNG(7)
	child := parent.Fork()
	// The child stream must differ from the parent's continuing stream.
	same := 0
	for i := 0; i < 64; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("fork stream overlaps parent stream (%d/64 equal)", same)
	}
}

func TestForkDeterminism(t *testing.T) {
	a := NewRNG(9).Fork()
	b := NewRNG(9).Fork()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("forked streams from equal parents diverged")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestIntnRangeProperty(t *testing.T) {
	r := NewRNG(11)
	f := func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d too far from expected %.0f", i, c, want)
		}
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(17)
	var o Online
	for i := 0; i < 200000; i++ {
		o.Add(r.ExpFloat64())
	}
	if math.Abs(o.Mean()-1) > 0.02 {
		t.Fatalf("exponential mean = %.4f, want ~1", o.Mean())
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(23)
	var o Online
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = r.NormFloat64()
		o.Add(xs[i])
	}
	if math.Abs(o.Mean()) > 0.02 {
		t.Fatalf("normal mean = %.4f, want ~0", o.Mean())
	}
	if std := sampleStd(xs); math.Abs(std-1) > 0.02 {
		t.Fatalf("normal std = %.4f, want ~1", std)
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(31)
	hits := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate %.4f", got)
	}
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
}

func TestInt63nRange(t *testing.T) {
	r := NewRNG(43)
	for i := 0; i < 10000; i++ {
		v := r.Int63n(1000)
		if v < 0 || v >= 1000 {
			t.Fatalf("Int63n out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Int63n(0) did not panic")
		}
	}()
	r.Int63n(0)
}
