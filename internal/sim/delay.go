package sim

import (
	"fmt"

	"pervasive/internal/stats"
)

// DelayModel captures the message transmission-and-propagation delay
// regimes of Section 3.2.2 of the paper. Sample returns the end-to-end
// delay for one message; dropped reports message loss (strobe loss is the
// failure mode analysed in Section 4.2.2).
type DelayModel interface {
	// Sample draws the delay for one message from src to dst.
	Sample(r *stats.RNG, src, dst int) (d Duration, dropped bool)
	// Bound returns the maximum possible delay Δ, or Never if unbounded.
	Bound() Duration
	// String describes the model for reports.
	String() string
}

// Synchronous is the ideal instantaneous regime (Δ = 0).
type Synchronous struct{}

// Sample implements DelayModel.
func (Synchronous) Sample(*stats.RNG, int, int) (Duration, bool) { return 0, false }

// Bound implements DelayModel.
func (Synchronous) Bound() Duration { return 0 }

func (Synchronous) String() string { return "synchronous(Δ=0)" }

// DeltaBounded is the asynchronous Δ-bounded regime: delays are uniform on
// [Min, Max], with Max playing the role of Δ. The paper argues this model
// is practical in wireless sensor networks because retransmission attempts
// are bounded.
type DeltaBounded struct {
	Min, Max Duration
}

// NewDeltaBounded returns a Δ-bounded model with delays uniform on
// [delta/10, delta]; the small floor avoids the unrealistic zero-delay
// corner while keeping Δ the controlling parameter.
func NewDeltaBounded(delta Duration) DeltaBounded {
	return DeltaBounded{Min: delta / 10, Max: delta}
}

// Sample implements DelayModel.
func (m DeltaBounded) Sample(r *stats.RNG, _, _ int) (Duration, bool) {
	if m.Max <= m.Min {
		return m.Min, false
	}
	return m.Min + Duration(r.Int63n(int64(m.Max-m.Min)+1)), false
}

// Bound implements DelayModel.
func (m DeltaBounded) Bound() Duration { return m.Max }

func (m DeltaBounded) String() string {
	return fmt.Sprintf("Δ-bounded[%v,%v]", m.Min, m.Max)
}

// WithLoss wraps a delay model with i.i.d. message loss probability P.
type WithLoss struct {
	Inner DelayModel
	P     float64
}

// Sample implements DelayModel.
func (m WithLoss) Sample(r *stats.RNG, src, dst int) (Duration, bool) {
	if r.Bool(m.P) {
		return 0, true
	}
	return m.Inner.Sample(r, src, dst)
}

// Bound implements DelayModel.
func (m WithLoss) Bound() Duration { return m.Inner.Bound() }

func (m WithLoss) String() string {
	return fmt.Sprintf("%v+loss(%.1f%%)", m.Inner, 100*m.P)
}

// LossWindow drops every message whose send time falls in [From, To),
// regardless of endpoints. It implements the targeted loss injection used
// by the loss-localization experiment (E8); the enclosing transport decides
// the send time, so LossWindow is driven through SampleAt.
type LossWindow struct {
	Inner    DelayModel
	From, To Time
}

// Sample implements DelayModel; without a send time it never drops.
func (m LossWindow) Sample(r *stats.RNG, src, dst int) (Duration, bool) {
	return m.Inner.Sample(r, src, dst)
}

// SampleAt draws a delay for a message sent at time at, dropping it inside
// the window.
func (m LossWindow) SampleAt(r *stats.RNG, at Time, src, dst int) (Duration, bool) {
	if at >= m.From && at < m.To {
		return 0, true
	}
	return m.Inner.Sample(r, src, dst)
}

// Bound implements DelayModel.
func (m LossWindow) Bound() Duration { return m.Inner.Bound() }

func (m LossWindow) String() string {
	return fmt.Sprintf("%v+losswindow[%v,%v)", m.Inner, m.From, m.To)
}

// LowerBounded is implemented by delay models that can state a minimum
// possible end-to-end delay. MinDelayBound consults it to compute the
// sharded engine's conservative lookahead.
type LowerBounded interface {
	MinBound() Duration
}

// MinBound implements LowerBounded: no message beats the uniform floor.
func (m DeltaBounded) MinBound() Duration { return m.Min }

// MinBound implements LowerBounded for the loss wrapper: losing messages
// does not speed up the surviving ones.
func (m WithLoss) MinBound() Duration { return MinDelayBound(m.Inner) }

// MinBound implements LowerBounded for the windowed-loss wrapper.
func (m LossWindow) MinBound() Duration { return MinDelayBound(m.Inner) }

// MinDelayBound returns the minimum delay any message can experience under
// m — the conservative lookahead L for a sharded run: a message sent at
// time t cannot arrive before t+L, so shards that have all executed up to
// an epoch boundary E cannot be affected by anything sent in (E-L, E]
// until after E. Models that state no lower bound (Synchronous's Δ=0)
// report 0, which restricts them to S=1.
func MinDelayBound(m DelayModel) Duration {
	if lb, ok := m.(LowerBounded); ok {
		return lb.MinBound()
	}
	return 0
}

// TimedSampler is implemented by delay models whose drop decision depends
// on the send time.
type TimedSampler interface {
	SampleAt(r *stats.RNG, at Time, src, dst int) (Duration, bool)
}

// SampleDelay draws from m, using send-time-aware sampling when available.
func SampleDelay(m DelayModel, r *stats.RNG, at Time, src, dst int) (Duration, bool) {
	if ts, ok := m.(TimedSampler); ok {
		return ts.SampleAt(r, at, src, dst)
	}
	return m.Sample(r, src, dst)
}
