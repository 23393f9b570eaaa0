package experiments

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pervasive/internal/advisor"
	"pervasive/internal/core"
	"pervasive/internal/sim"
)

// advisedKinds are the options advisor.Advise ranks.
var advisedKinds = []core.ClockKind{core.PhysicalReport, core.VectorStrobe, core.ScalarStrobe}

// detectorKind maps a table's detector column to its clock kind, ok false
// for a kind the advisor does not rank.
func detectorKind(name string) (core.ClockKind, bool) {
	if strings.HasPrefix(name, "physical") {
		return core.PhysicalReport, true
	}
	for _, k := range advisedKinds {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

// column returns the index of a table's column.
func column(t *testing.T, tbl *Table, name string) int {
	t.Helper()
	i := slices.Index(tbl.Header, name)
	if i < 0 {
		t.Fatalf("%s has no column %q", tbl.ID, name)
	}
	return i
}

// knownAdvisorDisagreements are the grid points where the advisor's top
// option is not the one the tables measure best, each a finding recorded
// in EXPERIMENTS.md ("The advisor held to the tables"). A new or vanished
// disagreement fails TestAdviseAgreesWithTables.
var knownAdvisorDisagreements []string

// TestAdviseAgreesWithTables holds advisor.Advise, the executable form of
// §3.3/§6's clock-choice rules, to what the quick tables measure. Each
// grid point becomes a Deployment:
//   - E1 (Δ sweep, sync available at ε = 1 ms): MeanEventGap is the mean
//     toggler dwell, (300 + 500)/2 ms, and Delta the point's Δ; the
//     measured winner has the best recall·precision.
//   - E7 (fleet-size sweep at Δ = 20 ms): N from the point and a
//     BytesBudget halfway between the scalar and vector bytes per event.
//     E7's physical row omits the synchronization service's own traffic
//     (E9 costs it), so sync is unavailable and the winner is the cheapest
//     strobe kind within the budget.
//   - E2 (overlap sweep at pairwise skew ε' = 10 ms, i.e. the advisor's
//     ε = 5 ms): on every row with FN-rate > 0, MinOverlap is the row's
//     overlap and physical clocks must not rank first. E2's reports cross
//     no network, so Delta is 0.
//
// E13's churn has no Deployment field, so no E13 point can be drawn.
func TestAdviseAgreesWithTables(t *testing.T) {
	var disagree []string
	check := func(point string, d advisor.Deployment, ok func(core.ClockKind) bool, want string) {
		if top := advisor.Advise(d).Options[0].Kind; !ok(top) {
			disagree = append(disagree, point)
			t.Logf("%s: Advise ranks %v first; measured: %s", point, top, want)
		}
	}

	e1 := E1StrobeAccuracy(quick())
	best := map[string]float64{}
	score := map[string]map[core.ClockKind]float64{}
	recall, precision := column(t, e1, "recall"), column(t, e1, "precision")
	for i, row := range e1.Rows {
		k, ok := detectorKind(row[1])
		if !ok {
			continue
		}
		s := cell(t, e1, i, recall) * cell(t, e1, i, precision)
		if score[row[0]] == nil {
			score[row[0]] = map[core.ClockKind]float64{}
		}
		score[row[0]][k] = s
		best[row[0]] = max(best[row[0]], s)
	}
	for _, row := range e1.Rows {
		if row[1] != core.VectorStrobe.String() {
			continue // one deployment per Δ
		}
		delta, err := durationCell(row[0])
		if err != nil {
			t.Fatalf("E1 Δ %q: %v", row[0], err)
		}
		d := advisor.Deployment{
			N: 6, MeanEventGap: 400 * sim.Millisecond, Delta: delta,
			SyncAvailable: true, SyncAffordable: true, SyncEpsilon: sim.Millisecond,
		}
		scores := score[row[0]]
		check("E1 Δ="+row[0], d, func(k core.ClockKind) bool { return scores[k] == best[row[0]] },
			fmt.Sprintf("best recall·precision %.3f", best[row[0]]))
	}

	e7 := E7MessageOverhead(quick())
	perEvent := map[string]map[core.ClockKind]float64{}
	bytesPerEvent := column(t, e7, "bytes/event")
	for i, row := range e7.Rows {
		if k, ok := detectorKind(row[1]); ok {
			if perEvent[row[0]] == nil {
				perEvent[row[0]] = map[core.ClockKind]float64{}
			}
			perEvent[row[0]][k] = cell(t, e7, i, bytesPerEvent)
		}
	}
	for _, n := range []int{4, 16} {
		bytes := perEvent[strconv.Itoa(n)]
		budget := (bytes[core.ScalarStrobe] + bytes[core.VectorStrobe]) / 2
		cheapest := core.ScalarStrobe
		if bytes[core.VectorStrobe] < bytes[cheapest] {
			cheapest = core.VectorStrobe
		}
		d := advisor.Deployment{
			N: n, MeanEventGap: 300 * sim.Millisecond, Delta: 20 * sim.Millisecond,
			BytesBudget: int(budget),
		}
		check(fmt.Sprintf("E7 n=%d", n), d, func(k core.ClockKind) bool { return k == cheapest },
			fmt.Sprintf("%v is the cheapest strobe within %.0f B/event", cheapest, budget))
	}

	e2 := E2TwoEpsilon(quick())
	racing, fnRate := 0, column(t, e2, "FN-rate")
	for i, row := range e2.Rows {
		if cell(t, e2, i, fnRate) == 0 {
			continue
		}
		racing++
		overlap, err := durationCell(row[1])
		if err != nil {
			t.Fatalf("E2 overlap %q: %v", row[1], err)
		}
		d := advisor.Deployment{
			N: 2, MeanEventGap: 200 * sim.Millisecond,
			SyncAvailable: true, SyncAffordable: true, SyncEpsilon: 5 * sim.Millisecond,
			MinOverlap: overlap,
		}
		check("E2 overlap/ε'="+row[0], d, func(k core.ClockKind) bool { return k != core.PhysicalReport },
			"FN-rate "+row[fnRate])
	}
	if racing == 0 {
		t.Fatal("no E2 row has false negatives: the check is vacuous")
	}

	if !slices.Equal(disagree, knownAdvisorDisagreements) {
		t.Errorf("disagreements %q, recorded %q", disagree, knownAdvisorDisagreements)
	}
}

// durationCell parses a table's duration cell ("50.000ms") back into µs.
func durationCell(s string) (sim.Duration, error) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"ms", float64(sim.Millisecond)}, {"µs", 1}, {"s", float64(sim.Second)}} {
		if v, ok := strings.CutSuffix(s, u.suffix); ok {
			f, err := strconv.ParseFloat(v, 64)
			return sim.Duration(f * u.scale), err
		}
	}
	return 0, fmt.Errorf("no unit in %q", s)
}
