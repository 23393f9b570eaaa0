package sim

import (
	"math"
	"testing"

	"pervasive/internal/stats"
)

func TestSynchronousDelay(t *testing.T) {
	var m Synchronous
	r := stats.NewRNG(1)
	d, dropped := m.Sample(r, 0, 1)
	if d != 0 || dropped {
		t.Fatalf("synchronous delay %v dropped=%v", d, dropped)
	}
	if m.Bound() != 0 {
		t.Fatal("synchronous bound should be 0")
	}
}

func TestDeltaBoundedRange(t *testing.T) {
	m := NewDeltaBounded(100 * Millisecond)
	r := stats.NewRNG(2)
	for i := 0; i < 10000; i++ {
		d, dropped := m.Sample(r, 0, 1)
		if dropped {
			t.Fatal("Δ-bounded model dropped a message")
		}
		if d < m.Min || d > m.Max {
			t.Fatalf("delay %v outside [%v,%v]", d, m.Min, m.Max)
		}
	}
	if m.Bound() != 100*Millisecond {
		t.Fatalf("bound %v", m.Bound())
	}
}

func TestDeltaBoundedDegenerate(t *testing.T) {
	m := DeltaBounded{Min: 5, Max: 5}
	r := stats.NewRNG(3)
	if d, _ := m.Sample(r, 0, 0); d != 5 {
		t.Fatalf("degenerate bounded delay %v", d)
	}
}

func TestWithLossRate(t *testing.T) {
	m := WithLoss{Inner: Synchronous{}, P: 0.25}
	r := stats.NewRNG(6)
	drops := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if _, dropped := m.Sample(r, 0, 1); dropped {
			drops++
		}
	}
	got := float64(drops) / n
	if math.Abs(got-0.25) > 0.01 {
		t.Fatalf("loss rate %.4f want ~0.25", got)
	}
}

func TestLossWindow(t *testing.T) {
	m := LossWindow{Inner: Synchronous{}, From: 100, To: 200}
	r := stats.NewRNG(7)
	if _, dropped := SampleDelay(m, r, 150, 0, 1); !dropped {
		t.Fatal("message inside window not dropped")
	}
	if _, dropped := SampleDelay(m, r, 99, 0, 1); dropped {
		t.Fatal("message before window dropped")
	}
	if _, dropped := SampleDelay(m, r, 200, 0, 1); dropped {
		t.Fatal("message at window end dropped (interval is half-open)")
	}
	// Plain Sample (no send time) never drops.
	if _, dropped := m.Sample(r, 0, 1); dropped {
		t.Fatal("timeless Sample dropped")
	}
}

func TestSampleDelayFallsBackWithoutTimedSampler(t *testing.T) {
	r := stats.NewRNG(8)
	d, dropped := SampleDelay(Synchronous{}, r, 123, 0, 1)
	if d != 0 || dropped {
		t.Fatal("fallback path misbehaved")
	}
}

func TestDelayModelStrings(t *testing.T) {
	models := []DelayModel{
		Synchronous{},
		NewDeltaBounded(Second),
		WithLoss{Inner: Synchronous{}, P: 0.1},
		LossWindow{Inner: Synchronous{}, From: 0, To: 1},
	}
	for _, m := range models {
		if m.String() == "" {
			t.Fatalf("%T has empty String()", m)
		}
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		Never:           "never",
		2 * Second:      "2.000s",
		3 * Millisecond: "3.000ms",
		7 * Microsecond: "7µs",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d.String() = %q want %q", int64(in), got, want)
		}
	}
}
