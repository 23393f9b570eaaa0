package stats

import (
	"math"
	"strings"
	"testing"
)

func TestConfusionMetrics(t *testing.T) {
	c := Confusion{TP: 8, FP: 2, FN: 4, TN: 6}
	if p := c.Precision(); math.Abs(p-0.8) > 1e-12 {
		t.Fatalf("precision %v", p)
	}
	if r := c.Recall(); math.Abs(r-8.0/12.0) > 1e-12 {
		t.Fatalf("recall %v", r)
	}
	if a := c.Accuracy(); math.Abs(a-14.0/20.0) > 1e-12 {
		t.Fatalf("accuracy %v", a)
	}
}

func TestConfusionEmptyConventions(t *testing.T) {
	var c Confusion
	if c.Precision() != 1 || c.Recall() != 1 || c.Accuracy() != 1 {
		t.Fatal("empty matrix should report perfect scores by convention")
	}
	if c.BorderlineCoverage() != 1 {
		t.Fatal("no-error borderline coverage should be 1")
	}
}

func TestConfusionAdd(t *testing.T) {
	a := Confusion{TP: 1, FP: 2, FN: 3, TN: 4, BorderlineFP: 1, BorderlineFN: 2}
	b := Confusion{TP: 10, FP: 20, FN: 30, TN: 40, BorderlineFP: 5, BorderlineFN: 6}
	a.Add(b)
	want := Confusion{TP: 11, FP: 22, FN: 33, TN: 44, BorderlineFP: 6, BorderlineFN: 8}
	if a != want {
		t.Fatalf("got %+v want %+v", a, want)
	}
}

func TestBorderlineCoverage(t *testing.T) {
	c := Confusion{FP: 4, FN: 4, BorderlineFP: 4, BorderlineFN: 2}
	if got := c.BorderlineCoverage(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("coverage %v", got)
	}
}

func TestConfusionString(t *testing.T) {
	c := Confusion{TP: 1, FP: 2, FN: 3, TN: 4}
	s := c.String()
	for _, want := range []string{"TP=1", "FP=2", "FN=3", "TN=4"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}
