// Command tracedump inspects run artifacts written by pervasim and the
// harnesses: flight dumps (internal/flight) — trigger-scoped flushes of
// the flight recorder, and run records (`pervasim -trace`), which hold
// every stamped sense event of a run — and recorded workload traces
// (internal/workload, `pervasim -record`). The input kind is sniffed
// from the file itself, not the name: a "PVWL" magic marks a binary
// workload trace; anything else must be a JSONL dump.
//
// Usage:
//
//	tracedump run.jsonl                 # run record: summary, DAG check, lattice analysis
//	tracedump run.pvwl                  # workload-trace summary + digest
//	tracedump detect.dump.jsonl         # dump summary + DAG validation
//	tracedump -dag detect.dump.jsonl    # happens-before DAG detail
//	tracedump -critical detect.dump.jsonl
//	tracedump -report run.jsonl         # instrument + span report card
//	tracedump -diff live.dump.jsonl des.dump.jsonl
//	tracedump -json -report run.jsonl   # machine-readable output
//
// Exit status: 0 clean, 1 findings (validation issues, diff mismatches,
// missing detection), 2 usage or decode errors.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"pervasive/internal/flight"
	"pervasive/internal/lattice"
	"pervasive/internal/obs"
	"pervasive/internal/sim"
	"pervasive/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracedump", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dag      = fs.Bool("dag", false, "print the happens-before DAG of a flight dump and validate it")
		critical = fs.Bool("critical", false, "print the causal critical path of the detection in a flight dump")
		report   = fs.Bool("report", false, "print the run report card: instruments, span roll-ups, fault timeline")
		diffWith = fs.String("diff", "", "diff the input against a second dump `file`, keyed by logical stamp")
		asJSON   = fs.Bool("json", false, "emit machine-readable JSON instead of text")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: tracedump [-dag|-critical|-report|-diff file] [-json] <dump.jsonl|workload.pvwl>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	modes := 0
	for _, on := range []bool{*dag, *critical, *report, *diffWith != ""} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		fmt.Fprintln(stderr, "tracedump: -dag, -critical, -report and -diff are mutually exclusive")
		return 2
	}

	in, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "tracedump:", err)
		return 2
	}

	switch {
	case *dag:
		return runDAG(in, *asJSON, stdout, stderr)
	case *critical:
		return runCritical(in, *asJSON, stdout, stderr)
	case *report:
		return runReport(in, *asJSON, stdout, stderr)
	case *diffWith != "":
		other, err := load(*diffWith)
		if err != nil {
			fmt.Fprintln(stderr, "tracedump:", err)
			return 2
		}
		return runDiff(in, other, *asJSON, stdout, stderr)
	}
	return runSummary(in, *asJSON, stdout, stderr)
}

// input is one loaded artifact: exactly one of dump/wl is non-nil.
type input struct {
	path string
	dump *flight.Dump
	wl   *workload.Trace
}

func (in *input) metrics() *obs.Snapshot {
	if in.dump != nil {
		return in.dump.Metrics
	}
	return nil
}

// timeBase returns the artifact's time base: the dump header's for
// dumps, virtual for workload traces.
func (in *input) timeBase() string {
	if in.dump != nil {
		return in.dump.TimeBase
	}
	return "virtual"
}

func (in *input) kind() string {
	if in.dump != nil {
		return "dump"
	}
	return "workload"
}

// load reads path and sniffs its format from content: a PVWL workload
// trace, else a JSONL flight dump.
func load(path string) (*input, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	in := &input{path: path}
	if workload.IsTraceHeader(data) {
		in.wl, err = workload.Decode(data)
	} else {
		in.dump, err = flight.DecodeJSONL(bytes.NewReader(data))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return in, nil
}

// ---- default summary ----

func runSummary(in *input, asJSON bool, stdout, stderr io.Writer) int {
	if in.wl != nil {
		return workloadSummary(in.wl, asJSON, stdout, stderr)
	}
	return dumpSummary(in.dump, asJSON, stdout, stderr)
}

// workloadSummary describes a recorded workload trace: header fields,
// per-attribute event counts, and the canonical digest — the identity a
// replay must reproduce.
func workloadSummary(wt *workload.Trace, asJSON bool, stdout, stderr io.Writer) int {
	objects := map[int]bool{}
	attrs := map[string]int{}
	for _, ev := range wt.Events {
		objects[ev.Obj] = true
		attrs[ev.Attr]++
	}
	if asJSON {
		out := map[string]any{
			"kind": "workload", "version": workload.TraceVersion,
			"horizon": wt.Horizon, "meta": wt.Meta,
			"events": len(wt.Events), "objects": len(objects),
			"attrs": attrs, "digest": workload.Digest(wt.Events),
		}
		return emitJSON(stdout, stderr, out, false)
	}
	fmt.Fprintf(stdout, "workload trace v%d: %d events over %d objects, horizon %v\n",
		workload.TraceVersion, len(wt.Events), len(objects), wt.Horizon)
	keys := make([]string, 0, len(wt.Meta))
	for k := range wt.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(stdout, "  meta %-10s %s\n", k, wt.Meta[k])
	}
	names := make([]string, 0, len(attrs))
	for a := range attrs {
		names = append(names, a)
	}
	sort.Strings(names)
	for _, a := range names {
		fmt.Fprintf(stdout, "  attr %-10s %d events\n", a, attrs[a])
	}
	if n := len(wt.Events); n > 0 {
		fmt.Fprintf(stdout, "span: %v .. %v\n", wt.Events[0].At, wt.Events[n-1].At)
	}
	fmt.Fprintf(stdout, "digest: %s\n", workload.Digest(wt.Events))
	return 0
}

// dumpSummary describes a dump — header, kind counts, per-process
// counts, metrics table, DAG verdict — and, when any sense carries a
// vector stamp (a run record of a vector clock kind), the lattice of
// consistent cuts those stamps span.
func dumpSummary(d *flight.Dump, asJSON bool, stdout, stderr io.Writer) int {
	g := flight.BuildDAG(d)
	issues := g.Validate()
	ex := d.Execution()
	if asJSON {
		out := map[string]any{
			"kind": "dump", "trigger": d.Trigger, "at": d.At,
			"time_base": d.TimeBase, "n": d.N, "procs": d.Procs,
			"events": len(d.Events), "kinds": kindCounts(d),
			"dag": map[string]any{"nodes": len(g.Events), "edges": edgeCount(g), "issues": issues},
		}
		if ex != nil {
			res, full := latticeSurvey(ex)
			out["lattice"] = map[string]any{
				"events": full.Events(), "cuts": res.Count, "width": res.Width,
				"truncated":       res.Truncated,
				"path_consistent": full.PathConsistentAlong(full.Path()),
			}
		}
		return emitJSON(stdout, stderr, out, len(issues) > 0)
	}
	fmt.Fprintf(stdout, "flight dump: trigger %q at %v (%s time)\n", d.Trigger, d.At, d.TimeBase)
	fmt.Fprintf(stdout, "processes: %d flushed of %d, events: %d\n", len(d.Procs), d.N, len(d.Events))
	for _, kc := range sortedKinds(d) {
		fmt.Fprintf(stdout, "  %-8s %d\n", kc.kind, kc.n)
	}
	perProc := make(map[int]int)
	for _, ev := range d.Events {
		perProc[ev.Proc]++
	}
	for _, p := range d.Procs {
		fmt.Fprintf(stdout, "  P%-3d: %5d events\n", p, perProc[p])
	}
	if d.Metrics != nil {
		if err := d.Metrics.WriteTable(stdout); err != nil {
			fmt.Fprintln(stderr, "tracedump:", err)
			return 2
		}
	}
	if len(issues) > 0 {
		fmt.Fprintf(stdout, "happens-before DAG: %d nodes, %d edges, INCONSISTENT\n", len(g.Events), edgeCount(g))
		for _, is := range issues {
			fmt.Fprintf(stdout, "  %s\n", is)
		}
		return 1
	}
	fmt.Fprintf(stdout, "happens-before DAG: %d nodes, %d edges, acyclic, clock rules hold\n",
		len(g.Events), edgeCount(g))
	if ex != nil {
		printLattice(stdout, ex)
	}
	return 0
}

// printLattice prints the lattice section of a summary.
func printLattice(stdout io.Writer, ex *lattice.Execution) {
	res, full := latticeSurvey(ex)
	if full.Events() < ex.Events() {
		fmt.Fprintf(stdout, "lattice (first %d events): ", full.Events())
	} else {
		fmt.Fprintf(stdout, "lattice (%d events): ", full.Events())
	}
	if res.Truncated {
		fmt.Fprintf(stdout, "at least %d consistent cuts of %d possible (survey stopped there), width at least %d\n",
			res.Count, full.NumCuts(), res.Width)
	} else {
		fmt.Fprintf(stdout, "%d consistent cuts of %d possible, width %d\n",
			res.Count, full.NumCuts(), res.Width)
	}
	if full.PathConsistentAlong(full.Path()) {
		fmt.Fprintln(stdout, "actual execution path: consistent under recorded stamps ✓")
	} else {
		fmt.Fprintln(stdout, "WARNING: actual path inconsistent — stamps corrupted?")
	}
}

// latticeSurvey cuts the execution to a tractable prefix — about
// maxEvents, evenly across processes — and surveys it, returning the
// surveyed execution alongside. A record with more processes than
// maxEvents keeps one event each, so the survey also stops at maxCuts;
// the result then says it was truncated.
func latticeSurvey(ex *lattice.Execution) (*lattice.SurveyResult, *lattice.Execution) {
	const maxEvents, maxCuts = 24, 1 << 18
	if ex.Events() > maxEvents {
		ex, _ = ex.Prefix(max(maxEvents/ex.N(), 1))
	}
	return ex.Survey(lattice.SurveyOptions{Limit: maxCuts}), ex
}

// ---- -dag ----

func runDAG(in *input, asJSON bool, stdout, stderr io.Writer) int {
	if in.dump == nil {
		fmt.Fprintln(stderr, "tracedump: -dag requires a flight dump or run record")
		return 2
	}
	g := flight.BuildDAG(in.dump)
	issues := g.Validate()
	if asJSON {
		type jsonEdge struct {
			From int `json:"from"`
			To   int `json:"to"`
		}
		var edges []jsonEdge
		for from, tos := range g.Edges {
			for _, to := range tos {
				edges = append(edges, jsonEdge{From: from, To: to})
			}
		}
		out := map[string]any{
			"nodes": g.Events, "edges": edges, "issues": issues,
		}
		return emitJSON(stdout, stderr, out, len(issues) > 0)
	}
	fmt.Fprintf(stdout, "happens-before DAG: %d nodes, %d edges\n", len(g.Events), edgeCount(g))
	for i, ev := range g.Events {
		fmt.Fprintf(stdout, "  [%d] %s\n", i, eventLine(ev))
		for _, to := range g.Edges[i] {
			fmt.Fprintf(stdout, "      -> [%d] %s\n", to, eventLine(g.Events[to]))
		}
	}
	if len(issues) > 0 {
		fmt.Fprintf(stdout, "INCONSISTENT: %d issue(s)\n", len(issues))
		for _, is := range issues {
			fmt.Fprintf(stdout, "  %s\n", is)
		}
		return 1
	}
	fmt.Fprintln(stdout, "acyclic, clock rules hold")
	return 0
}

// ---- -critical ----

func runCritical(in *input, asJSON bool, stdout, stderr io.Writer) int {
	if in.dump == nil {
		fmt.Fprintln(stderr, "tracedump: -critical requires a flight dump")
		return 2
	}
	g := flight.BuildDAG(in.dump)
	path := g.CriticalPath()
	if path == nil {
		fmt.Fprintln(stderr, "tracedump: no detection event in dump")
		return 1
	}
	if asJSON {
		events := make([]flight.Event, len(path))
		for i, idx := range path {
			events[i] = g.Events[idx]
		}
		return emitJSON(stdout, stderr, map[string]any{"critical_path": events}, false)
	}
	fmt.Fprintf(stdout, "causal critical path of detection (%d events):\n", len(path))
	for _, idx := range path {
		fmt.Fprintf(stdout, "  %s\n", eventLine(g.Events[idx]))
	}
	return 0
}

// ---- -report ----

// spanRollup aggregates the completed spans of one name.
type spanRollup struct {
	Name  string   `json:"name"`
	Count int      `json:"count"`
	Total sim.Time `json:"total"`
	Mean  float64  `json:"mean"`
}

func rollupSpans(spans []obs.SpanSnap) []spanRollup {
	byName := map[string]*spanRollup{}
	for _, sp := range spans {
		r := byName[sp.Name]
		if r == nil {
			r = &spanRollup{Name: sp.Name}
			byName[sp.Name] = r
		}
		r.Count++
		r.Total += sp.End - sp.Start
	}
	out := make([]spanRollup, 0, len(byName))
	for _, r := range byName {
		r.Mean = float64(r.Total) / float64(r.Count)
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// faultTimeline extracts crash/recover/drop events from a dump in time
// order. Workload traces have no fault events, so it returns nil for them.
func faultTimeline(in *input) []flight.Event {
	if in.dump == nil {
		return nil
	}
	var out []flight.Event
	for _, ev := range in.dump.Events {
		switch ev.Kind {
		case "crash", "recover", "drop":
			out = append(out, ev)
		}
	}
	return out
}

func runReport(in *input, asJSON bool, stdout, stderr io.Writer) int {
	snap := in.metrics()
	if snap == nil {
		fmt.Fprintf(stderr, "tracedump: %s carries no metrics snapshot; nothing to report\n", in.path)
		return 1
	}
	rollups := rollupSpans(snap.Spans)
	faults := faultTimeline(in)
	if asJSON {
		out := map[string]any{
			"kind": in.kind(), "time_base": in.timeBase(),
			"counters": snap.Counters, "gauges": snap.Gauges,
			"histograms": histSummaries(snap.Histograms),
			"spans":      rollups, "faults": faults,
		}
		return emitJSON(stdout, stderr, out, false)
	}
	fmt.Fprintf(stdout, "report card: %s %s (%s time)\n", in.kind(), in.path, in.timeBase())
	if err := snap.WriteTable(stdout); err != nil {
		fmt.Fprintln(stderr, "tracedump:", err)
		return 2
	}
	if len(rollups) > 0 {
		fmt.Fprintln(stdout, "span roll-ups:")
		for _, r := range rollups {
			fmt.Fprintf(stdout, "  %-24s n=%d total=%v mean=%.1f\n", r.Name, r.Count, r.Total, r.Mean)
		}
	}
	if len(faults) > 0 {
		fmt.Fprintln(stdout, "fault timeline:")
		for _, ev := range faults {
			fmt.Fprintf(stdout, "  %s\n", eventLine(ev))
		}
	}
	return 0
}

// histSummary is the machine-readable histogram digest used by -json
// report output: quantiles from the interpolated estimator.
type histSummary struct {
	Name  string  `json:"name"`
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

func histSummaries(hists []obs.HistSnap) []histSummary {
	out := make([]histSummary, 0, len(hists))
	for _, h := range hists {
		out = append(out, histSummary{
			Name: h.Name, Count: h.Count, Mean: h.Mean(),
			P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
			Max: h.Max,
		})
	}
	return out
}

// ---- -diff ----

// stampKey identifies an event by logical position, not time: the same
// protocol step in a DES run and a live run carries the same key even
// though engine times differ completely.
type stampKey struct {
	Kind  string
	Proc  int
	Peer  int
	Epoch int
	Seq   uint64
}

func stampKeys(d *flight.Dump) map[stampKey]int {
	keys := make(map[stampKey]int, len(d.Events))
	for _, ev := range d.Events {
		keys[stampKey{ev.Kind, ev.Proc, ev.Peer, ev.Epoch, ev.Seq}]++
	}
	return keys
}

func runDiff(a, b *input, asJSON bool, stdout, stderr io.Writer) int {
	if a.wl != nil || b.wl != nil {
		fmt.Fprintln(stderr, "tracedump: -diff keys on logical stamps; compare workload traces by their summary digests instead")
		return 2
	}
	// Span durations are only comparable within one time base: virtual
	// ticks and wall microseconds are different units entirely.
	if ta, tb := a.timeBase(), b.timeBase(); ta != tb {
		fmt.Fprintf(stderr, "tracedump: refusing to diff across time bases: %s is %q, %s is %q\n",
			a.path, ta, b.path, tb)
		return 2
	}

	var counterDeltas []map[string]any
	if sa, sb := a.metrics(), b.metrics(); sa != nil && sb != nil {
		av := map[string]int64{}
		for _, c := range sa.Counters {
			av[c.Name] = c.Value
		}
		seen := map[string]bool{}
		for _, c := range sb.Counters {
			seen[c.Name] = true
			if d := av[c.Name] - c.Value; d != 0 {
				counterDeltas = append(counterDeltas, map[string]any{
					"name": c.Name, "a": av[c.Name], "b": c.Value,
				})
			}
		}
		for _, c := range sa.Counters {
			if !seen[c.Name] && c.Value != 0 {
				counterDeltas = append(counterDeltas, map[string]any{
					"name": c.Name, "a": c.Value, "b": int64(0),
				})
			}
		}
		sort.Slice(counterDeltas, func(i, j int) bool {
			return counterDeltas[i]["name"].(string) < counterDeltas[j]["name"].(string)
		})
	}

	var onlyA, onlyB []string
	ka, kb := stampKeys(a.dump), stampKeys(b.dump)
	for k, n := range ka {
		if kb[k] < n {
			onlyA = append(onlyA, stampString(k, n-kb[k]))
		}
	}
	for k, n := range kb {
		if ka[k] < n {
			onlyB = append(onlyB, stampString(k, n-ka[k]))
		}
	}
	sort.Strings(onlyA)
	sort.Strings(onlyB)

	differs := len(counterDeltas) > 0 || len(onlyA) > 0 || len(onlyB) > 0
	if asJSON {
		out := map[string]any{
			"a": a.path, "b": b.path, "time_base": a.timeBase(),
			"counter_deltas": counterDeltas,
			"only_in_a":      onlyA, "only_in_b": onlyB,
			"identical": !differs,
		}
		return emitJSON(stdout, stderr, out, differs)
	}
	fmt.Fprintf(stdout, "diff %s (a) vs %s (b), %s time\n", a.path, b.path, a.timeBase())
	if len(counterDeltas) > 0 {
		fmt.Fprintln(stdout, "counter deltas:")
		for _, cd := range counterDeltas {
			fmt.Fprintf(stdout, "  %-24s a=%d b=%d\n", cd["name"], cd["a"], cd["b"])
		}
	}
	for _, line := range onlyA {
		fmt.Fprintf(stdout, "only in a: %s\n", line)
	}
	for _, line := range onlyB {
		fmt.Fprintf(stdout, "only in b: %s\n", line)
	}
	if !differs {
		fmt.Fprintln(stdout, "identical under logical-stamp keys")
		return 0
	}
	return 1
}

func stampString(k stampKey, n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s p%d", k.Kind, k.Proc)
	if k.Peer >= 0 {
		fmt.Fprintf(&sb, " peer=p%d", k.Peer)
	}
	fmt.Fprintf(&sb, " epoch=%d seq=%d", k.Epoch, k.Seq)
	if n > 1 {
		fmt.Fprintf(&sb, " ×%d", n)
	}
	return sb.String()
}

// ---- shared helpers ----

func emitJSON(stdout, stderr io.Writer, v any, findings bool) int {
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintln(stderr, "tracedump:", err)
		return 2
	}
	if findings {
		return 1
	}
	return 0
}

func eventLine(ev flight.Event) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s p%d at=%v", ev.Kind, ev.Proc, ev.At)
	if ev.Peer >= 0 {
		fmt.Fprintf(&sb, " peer=p%d", ev.Peer)
	}
	fmt.Fprintf(&sb, " epoch=%d seq=%d", ev.Epoch, ev.Seq)
	if ev.Attr != "" {
		fmt.Fprintf(&sb, " attr=%s", ev.Attr)
	}
	if ev.Clock != 0 {
		fmt.Fprintf(&sb, " clock=%d", ev.Clock)
	}
	if ev.PeerClock != 0 {
		fmt.Fprintf(&sb, " peer_clock=%d", ev.PeerClock)
	}
	return sb.String()
}

type kindCount struct {
	kind string
	n    int
}

func sortedKinds(d *flight.Dump) []kindCount {
	counts := kindCounts(d)
	out := make([]kindCount, 0, len(counts))
	for k, n := range counts {
		out = append(out, kindCount{k, n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].kind < out[j].kind })
	return out
}

func kindCounts(d *flight.Dump) map[string]int {
	counts := map[string]int{}
	for _, ev := range d.Events {
		counts[ev.Kind]++
	}
	return counts
}

func edgeCount(g *flight.DAG) int {
	n := 0
	for _, tos := range g.Edges {
		n += len(tos)
	}
	return n
}
