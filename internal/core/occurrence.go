package core

import (
	"pervasive/internal/checker"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
	"pervasive/internal/world"
)

// Occurrence is one detected period during which a checker's view
// satisfied the predicate. The type lives in package checker (which sits
// below core in the import graph) so the flat checkers and the checker
// tree report through one type.
type Occurrence = checker.Occurrence

// span returns the occurrence as an interval.
func span(o Occurrence) world.Interval { return world.Interval{Start: o.Start, End: o.End} }

// Score matches detected occurrences against ground-truth intervals and
// fills a confusion matrix.
//
// Matching: a detection matches a true interval when the detection window,
// widened by tol on both sides, overlaps it (tol absorbs the detector's
// inherent view lag, bounded by Δ for strobe checkers and by ε for
// physical ones). Matched truths are TP; unmatched truths FN; unmatched
// detections FP. TN counts true-negative gaps between consecutive true
// intervals that contain no false detection, so accuracy and FPR are
// meaningful.
//
// Borderline accounting: FP detections flagged borderline count into
// BorderlineFP. A FN truth counts into BorderlineFN when a race marker
// (markers, checker-view times) lies within tol of it — the checker saw
// the race that hid the occurrence, so a consensus pass can bin it.
func Score(dets []Occurrence, truth []world.Interval, markers []sim.Time,
	tol sim.Duration, horizon sim.Time) stats.Confusion {

	var c stats.Confusion
	matchedTruth := make([]bool, len(truth))
	matchedDet := make([]bool, len(dets))

	for di, d := range dets {
		w := world.Interval{Start: d.Start - tol, End: d.End + tol}
		for ti, tv := range truth {
			if w.Overlap(tv) > 0 || tv.Contains(w.Start) || w.Contains(tv.Start) {
				matchedTruth[ti] = true
				matchedDet[di] = true
			}
		}
	}

	markerNear := func(iv world.Interval) bool {
		for _, m := range markers {
			if m >= iv.Start-tol && m < iv.End+tol {
				return true
			}
		}
		return false
	}

	for ti := range truth {
		if matchedTruth[ti] {
			c.TP++
		} else {
			c.FN++
			if markerNear(truth[ti]) {
				c.BorderlineFN++
			}
		}
	}
	for di := range dets {
		if !matchedDet[di] {
			c.FP++
			if dets[di].Borderline || markerNear(span(dets[di])) {
				c.BorderlineFP++
			}
		}
	}

	// True negatives: gaps of the ground truth with no false detection.
	gaps := gapsOf(truth, horizon)
	for _, g := range gaps {
		clean := true
		for di, d := range dets {
			if !matchedDet[di] && g.Overlap(span(d)) > 0 {
				clean = false
				break
			}
		}
		if clean {
			c.TN++
		}
	}
	return c
}

// gapsOf returns the complement intervals of truth within [0, horizon).
func gapsOf(truth []world.Interval, horizon sim.Time) []world.Interval {
	var gaps []world.Interval
	cursor := sim.Time(0)
	for _, tv := range truth {
		if tv.Start > cursor {
			gaps = append(gaps, world.Interval{Start: cursor, End: tv.Start})
		}
		if tv.End > cursor {
			cursor = tv.End
		}
	}
	if horizon > cursor {
		gaps = append(gaps, world.Interval{Start: cursor, End: horizon})
	}
	return gaps
}

// CloseOpen closes a still-open final occurrence at the horizon. Checkers
// call it from their Finish step.
func closeOpen(occ []Occurrence, open bool, horizon sim.Time) []Occurrence {
	if open && len(occ) > 0 && occ[len(occ)-1].End == 0 {
		occ[len(occ)-1].End = horizon
	}
	return occ
}
