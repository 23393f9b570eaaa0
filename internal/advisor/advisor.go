// Package advisor encodes the paper's decision guidance as an executable
// rule set: Sections 3.3 and 6 enumerate when physically synchronized
// clocks are the right implementation of the single time axis and when
// logical strobe clocks are the viable alternative — "(i) the sensing
// event occurrence rate is low with respect to Δ, or (ii) physical
// synchronized clocks are too expensive or not available or needed."
//
// Given a deployment's characteristics, Advise returns a ranked
// recommendation of clock options with the paper's rationale attached,
// and predicts the dominant error mode of each option.
package advisor

import (
	"fmt"
	"strings"

	"pervasive/internal/clock"
	"pervasive/internal/core"
	"pervasive/internal/sim"
)

// Deployment describes the application the way §3.3 reasons about it.
type Deployment struct {
	// N is the number of sensor/actuator processes.
	N int
	// MeanEventGap is the mean time between relevant sensed events at a
	// process — the rate §3.3 compares against Δ.
	MeanEventGap sim.Duration
	// Delta is the message-delay bound of the network (§3.2.2); 0 means
	// messages arrive at once (§4.2.3 item 5), and a negative bound
	// reads as 0.
	Delta sim.Duration
	// SyncAvailable: a lower-layer physically-synchronized clock service
	// exists (§3.3 limitation 1 when false — e.g. remote terrain).
	SyncAvailable bool
	// SyncAffordable: its energy/traffic cost is acceptable (§3.3
	// limitation 1: "even if it is available, it may not be affordable").
	SyncAffordable bool
	// SyncEpsilon is the service's skew bound when available.
	SyncEpsilon sim.Duration
	// MinOverlap is the shortest predicate-true overlap the application
	// must not miss (§3.3 limitation 2 / Mayo–Kearns: overlaps below the
	// skew bound are missed).
	MinOverlap sim.Duration
	// CrossDomain: participants belong to different administrative
	// domains (§3.3 limitation 5: clock synchronization raises security
	// and privacy concerns across domains).
	CrossDomain bool
	// NeedRaceFlagging: the application needs race-affected detections
	// identified (the borderline bin of §5) — only vector strobes can.
	NeedRaceFlagging bool
	// BytesBudget restricts per-event control traffic (favours O(1)
	// scalar strobes over O(n) vectors, §4.2.2): the bytes one sensed
	// event puts on the air, every copy of its strobe counted.
	BytesBudget int
}

// Option is one recommended configuration.
type Option struct {
	Kind core.ClockKind
	// Score in [0,1]: suitability under the paper's criteria.
	Score float64
	// ErrorMode is the dominant inaccuracy to expect.
	ErrorMode string
	// Rationale cites the paper's reasoning.
	Rationale []string
}

// Advice is the ranked recommendation.
type Advice struct {
	Options []Option // best first
	// Summary is a one-paragraph verdict.
	Summary string
}

// Advise applies the paper's criteria to the deployment.
func Advise(d Deployment) Advice {
	if d.N <= 0 {
		d.N = 2
	}
	if d.MeanEventGap <= 0 {
		d.MeanEventGap = sim.Second
	}
	if d.Delta < 0 {
		d.Delta = 0
	}

	// rateRatio ≫ 1 means events are slow relative to Δ — the strobe
	// clocks' favourable regime (§3.3).
	rateRatio := float64(d.MeanEventGap) / float64(d.Delta)

	physical := scorePhysical(d)
	vector := scoreVector(d, rateRatio)
	scalar := scoreScalar(d, rateRatio, vector.Score)

	opts := []Option{physical, vector, scalar}
	// Sort descending by score (3 items: do it directly).
	for i := 0; i < len(opts); i++ {
		for j := i + 1; j < len(opts); j++ {
			if opts[j].Score > opts[i].Score {
				opts[i], opts[j] = opts[j], opts[i]
			}
		}
	}
	return Advice{Options: opts, Summary: summarize(d, opts, rateRatio)}
}

func scorePhysical(d Deployment) Option {
	o := Option{Kind: core.PhysicalReport, Score: 1}
	if !d.SyncAvailable {
		o.Score = 0
		o.Rationale = append(o.Rationale,
			"no physically synchronized clock service is available from a lower layer (§3.3 limitation 1)")
	}
	if d.SyncAvailable && !d.SyncAffordable {
		o.Score *= 0.2
		o.Rationale = append(o.Rationale,
			"the service exists but its energy cost is unaffordable — 'this service is not for free' (§3.3)")
	}
	if d.CrossDomain {
		o.Score *= 0.5
		o.Rationale = append(o.Rationale,
			"cross-domain clock synchronization raises security and privacy concerns (§3.3 limitation 5)")
	}
	if d.SyncAvailable && d.MinOverlap > 0 && d.SyncEpsilon > 0 &&
		d.MinOverlap < 2*d.SyncEpsilon {
		o.Score *= 0.4
		o.ErrorMode = "false negatives on overlaps shorter than 2ε (Mayo–Kearns [28])"
		o.Rationale = append(o.Rationale, fmt.Sprintf(
			"required overlaps (%v) fall below 2ε = %v: races escape even synchronized clocks (§3.3 limitation 2)",
			d.MinOverlap, 2*d.SyncEpsilon))
	}
	if o.ErrorMode == "" {
		o.ErrorMode = "false negatives/positives only within the skew ε"
	}
	if len(o.Rationale) == 0 {
		o.Rationale = append(o.Rationale,
			"synchronized physical clocks are 'clearly a desirable option' when available and affordable (§6)")
	}
	return o
}

// vectorOverBudget reports whether an event's vector strobes exceed the
// byte budget, and what they cost: the strobe goes to the n−1 peers and
// the checker, n copies, each the message plus the transport's 8-byte
// header — the bytes/event E7 measures.
func vectorOverBudget(d Deployment) (bool, int) {
	b := d.N * ((&core.StrobeMsg{Vec: make(clock.Vector, d.N)}).WireSize() + 8)
	return d.BytesBudget > 0 && b > d.BytesBudget, b
}

func scoreVector(d Deployment, rateRatio float64) Option {
	o := Option{Kind: core.VectorStrobe}
	switch {
	case d.Delta == 0:
		o.Score = 0.95
		o.Rationale = append(o.Rationale,
			"with Δ = 0 no sensed event races another in the network (§4.2.3 item 5)")
	case rateRatio >= 10:
		o.Score = 0.95
		o.Rationale = append(o.Rationale, fmt.Sprintf(
			"event gap is %.0f× Δ: 'Δ may be adequate when the rate of occurrence of sensed events is comparatively low' (§3.3)", rateRatio))
	case rateRatio >= 2:
		o.Score = 0.7
		o.Rationale = append(o.Rationale,
			"events are moderately slow relative to Δ; some races will occur (§3.3)")
	default:
		o.Score = 0.3
		o.Rationale = append(o.Rationale,
			"events race within Δ frequently: accuracy will suffer (§3.3)")
	}
	if !d.SyncAvailable || !d.SyncAffordable || d.CrossDomain {
		o.Score += 0.05 // the regime the strobes were designed for
		o.Rationale = append(o.Rationale,
			"strobe clocks need no lower-layer sync service, no cross-layer dependence, and no cross-domain trust (§3.3, §6)")
	}
	if d.NeedRaceFlagging {
		o.Rationale = append(o.Rationale,
			"vector strobes support the borderline bin: race-affected detections are identified (§5)")
	}
	if over, b := vectorOverBudget(d); over {
		o.Score *= 0.6
		o.Rationale = append(o.Rationale, fmt.Sprintf(
			"an event's %d vector strobes of O(n) stamps put %dB on the air, over the %dB budget; consider differential strobes or scalars (§4.2.2)",
			d.N, b, d.BytesBudget))
	}
	o.ErrorMode = "false negatives on races within Δ; race-affected detections flagged borderline"
	if o.Score > 1 {
		o.Score = 1
	}
	return o
}

func scoreScalar(d Deployment, rateRatio float64, vectorScore float64) Option {
	o := Option{Kind: core.ScalarStrobe, Score: vectorScore}
	if d.Delta == 0 {
		o.Score = vectorScore
		o.Rationale = append(o.Rationale,
			"with Δ=0, strobe scalars replace strobe vectors without losing accuracy (§4.2.3 item 5)")
	} else {
		o.Score = vectorScore * 0.85
		o.Rationale = append(o.Rationale,
			"scalars are lightweight (O(1) strobes) but cannot certify races: erroneous detections go unflagged (§3.3, §4.2.2)")
	}
	if d.NeedRaceFlagging && d.Delta > 0 {
		o.Score *= 0.3
		o.Rationale = append(o.Rationale,
			"the application needs race flagging, which scalar strobes cannot provide (§5)")
	}
	if over, _ := vectorOverBudget(d); over {
		o.Score *= 1.3
		o.Rationale = append(o.Rationale,
			"the byte budget favours O(1) scalar strobes over O(n) vectors (§4.2.2)")
	}
	o.ErrorMode = "false negatives AND unflagged false positives on races within Δ"
	if o.Score > 1 {
		o.Score = 1
	}
	return o
}

func summarize(d Deployment, opts []Option, rateRatio float64) string {
	best := opts[0]
	var b strings.Builder
	fmt.Fprintf(&b, "recommended: %v (score %.2f). ", best.Kind, best.Score)
	switch best.Kind {
	case core.PhysicalReport:
		b.WriteString("Synchronized physical clocks are available, affordable, and precise enough — the desirable option (§6).")
	case core.VectorStrobe:
		if d.Delta == 0 {
			fmt.Fprintf(&b, "Δ = 0 with sync %s — the conditions under which the paper advocates strobe clocks (§6).", syncDesc(d))
			break
		}
		fmt.Fprintf(&b, "Event gap %.0f× Δ with sync %s — the conditions under which the paper advocates strobe clocks (§6).",
			rateRatio, syncDesc(d))
	case core.ScalarStrobe:
		b.WriteString("Lightweight scalar strobes suffice here (Δ≈0 or tight byte budget, no race flagging needed).")
	}
	return b.String()
}

func syncDesc(d Deployment) string {
	switch {
	case !d.SyncAvailable:
		return "unavailable"
	case !d.SyncAffordable:
		return "unaffordable"
	case d.CrossDomain:
		return "blocked by cross-domain privacy"
	default:
		return "available"
	}
}
