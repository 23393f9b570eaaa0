package stats

import "math"

// Online accumulates a running mean and maximum. The zero value is ready
// to use.
type Online struct {
	n    int64
	mean float64
	max  float64
}

// Add folds x into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 || x > o.max {
		o.max = x
	}
	o.mean += (x - o.mean) / float64(o.n)
}

// Mean returns the sample mean, or 0 with no samples.
func (o *Online) Mean() float64 { return o.mean }

// Max returns the largest sample seen, or 0 with no samples.
func (o *Online) Max() float64 { return o.max }

// Percentile returns the p-quantile (0 <= p <= 1) of sorted data using
// linear interpolation between order statistics. sorted must be ascending.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
