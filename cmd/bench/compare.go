package main

import (
	"errors"
	"fmt"
	"io"
	"math"
)

// Verdicts of -compare, per workload and end-to-end metric.
const (
	better     = "better"
	same       = "same"
	worse      = "worse"
	unresolved = "unresolved"
)

// verdict judges new against old by the metric's own bound. When either
// side's reps spread (min to max, as a share of its median) wider than
// the bound and the two ranges overlap, the runs cannot tell a change of
// that size from noise: unresolved, not same.
func verdict(d metricDef, old, new dist) string {
	spread := func(v dist) float64 { return ratio(v.Max-v.Min, math.Abs(v.Median)) }
	overlap := old.Min <= new.Max && new.Min <= old.Max
	if math.Max(spread(old), spread(new)) > d.Bound && overlap {
		return unresolved
	}
	change := ratio(new.Median-old.Median, math.Abs(old.Median)) // > 0: grew
	if d.Better == higher {
		change = -change
	}
	switch {
	case change > d.Bound:
		return worse
	case change < -d.Bound:
		return better
	}
	return same
}

// compareFiles prints one row per workload and end-to-end metric and
// returns the exit code: 1 on any worse verdict or a higher share of
// failed operations, else 0.
func compareFiles(w io.Writer, oldPath, newPath string) int {
	var old, new report
	if err := errors.Join(readJSON(oldPath, &old), readJSON(newPath, &new)); err != nil {
		fmt.Fprintf(w, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(w, "old: commit %s, seed %d, nproc %d    new: commit %s, seed %d, nproc %d\n",
		old.Header.Commit, old.Header.Seed, old.Header.NProc,
		new.Header.Commit, new.Header.Seed, new.Header.NProc)
	byName := map[string]*result{}
	for _, r := range old.Results {
		byName[r.Workload] = r
	}
	code := 0
	for _, n := range new.Results {
		o, ok := byName[n.Workload]
		if !ok {
			fmt.Fprintf(w, "%-15s only in %s\n", n.Workload, newPath)
			continue
		}
		for _, d := range endToEnd {
			ov, nv := o.EndToEnd[d.Name], n.EndToEnd[d.Name]
			v := verdict(d, ov, nv)
			if v == worse {
				code = 1
			}
			fmt.Fprintf(w, "%-15s %-13s new/old %.4f (base %.4f %s, new %.4f; bound %.1f%%; old %.4f..%.4f n=%d, new %.4f..%.4f n=%d) %s\n",
				n.Workload, d.Name, ratio(nv.Median, ov.Median), ov.Median, d.Unit, nv.Median, 100*d.Bound,
				ov.Min, ov.Max, ov.N, nv.Min, nv.Max, nv.N, v)
		}
		of, nf := ratio(float64(o.FailedOps), float64(o.Ops)), ratio(float64(n.FailedOps), float64(n.Ops))
		fmt.Fprintf(w, "%-15s failed_ops/ops old %d/%d, new %d/%d\n", n.Workload, o.FailedOps, o.Ops, n.FailedOps, n.Ops)
		if nf > of {
			code = 1
		}
	}
	return code
}
