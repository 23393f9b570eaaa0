package stats

import (
	"math"
	"testing"
)

// Uniform is the continuous uniform distribution on [Lo, Hi): a Dist
// only these tests draw from.
type Uniform struct{ Lo, Hi float64 }

// Sample implements Dist.
func (u Uniform) Sample(r *RNG) float64 { return u.Lo + (u.Hi-u.Lo)*r.Float64() }

// The analytic means the sampled ones are held to (may be +Inf).

func (c Constant) Mean() float64 { return c.V }

func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

func (e Exponential) Mean() float64 { return e.MeanV }

func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

func (n Normal) Mean() float64 { return n.Mu }

func sampleMean(d Dist, r *RNG, n int) float64 {
	var o Online
	for i := 0; i < n; i++ {
		o.Add(d.Sample(r))
	}
	return o.Mean()
}

func TestConstant(t *testing.T) {
	d := Constant{V: 4.5}
	r := NewRNG(1)
	for i := 0; i < 10; i++ {
		if d.Sample(r) != 4.5 {
			t.Fatal("Constant sampled a different value")
		}
	}
	if d.Mean() != 4.5 {
		t.Fatal("Constant mean mismatch")
	}
}

func TestUniformBoundsAndMean(t *testing.T) {
	d := Uniform{Lo: 2, Hi: 6}
	r := NewRNG(2)
	for i := 0; i < 10000; i++ {
		v := d.Sample(r)
		if v < 2 || v >= 6 {
			t.Fatalf("uniform sample %v out of [2,6)", v)
		}
	}
	if m := sampleMean(d, r, 100000); math.Abs(m-4) > 0.05 {
		t.Fatalf("uniform mean %.4f, want ~4", m)
	}
	if d.Mean() != 4 {
		t.Fatal("uniform analytic mean mismatch")
	}
}

func TestExponentialMean(t *testing.T) {
	d := Exponential{MeanV: 3}
	r := NewRNG(3)
	if m := sampleMean(d, r, 200000); math.Abs(m-3) > 0.06 {
		t.Fatalf("exponential mean %.4f, want ~3", m)
	}
}

func TestParetoTailAndMean(t *testing.T) {
	d := Pareto{Xm: 1, Alpha: 2.5}
	r := NewRNG(4)
	for i := 0; i < 10000; i++ {
		if d.Sample(r) < 1 {
			t.Fatal("Pareto sample below scale")
		}
	}
	want := d.Mean() // alpha*xm/(alpha-1) = 2.5/1.5
	if m := sampleMean(d, r, 400000); math.Abs(m-want) > 0.05 {
		t.Fatalf("pareto mean %.4f, want ~%.4f", m, want)
	}
	if !math.IsInf(Pareto{Xm: 1, Alpha: 0.9}.Mean(), 1) {
		t.Fatal("heavy-tail Pareto should report infinite mean")
	}
}

func TestNormalMoments(t *testing.T) {
	d := Normal{Mu: -2, Sigma: 0.5}
	r := NewRNG(5)
	var o Online
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = d.Sample(r)
		o.Add(xs[i])
	}
	if math.Abs(o.Mean()+2) > 0.01 {
		t.Fatalf("normal mean %.4f", o.Mean())
	}
	if std := sampleStd(xs); math.Abs(std-0.5) > 0.01 {
		t.Fatalf("normal std %.4f", std)
	}
}

func TestAnalyticMeans(t *testing.T) {
	if (Exponential{MeanV: 3}).Mean() != 3 {
		t.Fatal("exponential mean")
	}
	if (Normal{Mu: -2, Sigma: 1}).Mean() != -2 {
		t.Fatal("normal mean")
	}
}
