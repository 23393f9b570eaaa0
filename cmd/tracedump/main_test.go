package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"pervasive/internal/core"
	"pervasive/internal/faults"
	"pervasive/internal/flight"
	"pervasive/internal/obs"
	"pervasive/internal/predicate"
	"pervasive/internal/sim"
	"pervasive/internal/world"
)

var update = flag.Bool("update", false, "rewrite golden files")

// runCLI invokes the command exactly as main does and returns its exit
// code and both output streams.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// TestTraceSummaryGolden pins the full trace output — event counts,
// per-process breakdown, embedded metrics table, lattice analysis —
// against a checked-in trace. Regenerate with: go test ./cmd/tracedump -update
func TestTraceSummaryGolden(t *testing.T) {
	code, out, errb := runCLI(t, filepath.Join("testdata", "sample.json"))
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	checkGolden(t, "sample.golden", out)
}

// TestDumpSummaryGolden pins the dump summary: trigger line, kind
// counts, metrics table, DAG verdict.
func TestDumpSummaryGolden(t *testing.T) {
	code, out, errb := runCLI(t, filepath.Join("testdata", "detect.dump.jsonl"))
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	checkGolden(t, "detect.summary.golden", out)
}

func TestDAGGolden(t *testing.T) {
	code, out, errb := runCLI(t, "-dag", filepath.Join("testdata", "detect.dump.jsonl"))
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	checkGolden(t, "detect.dag.golden", out)
}

func TestCriticalGolden(t *testing.T) {
	code, out, errb := runCLI(t, "-critical", filepath.Join("testdata", "detect.dump.jsonl"))
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	checkGolden(t, "detect.critical.golden", out)
}

func TestReportGolden(t *testing.T) {
	code, out, errb := runCLI(t, "-report", filepath.Join("testdata", "detect.dump.jsonl"))
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	checkGolden(t, "detect.report.golden", out)
}

// TestJSONSchemas decodes every -json mode's output: the documented
// keys must be present and the payload must be valid JSON.
func TestJSONSchemas(t *testing.T) {
	dump := filepath.Join("testdata", "detect.dump.jsonl")
	cases := []struct {
		args []string
		keys []string
	}{
		{[]string{"-json", dump}, []string{"kind", "trigger", "time_base", "events", "kinds", "dag"}},
		{[]string{"-json", filepath.Join("testdata", "sample.json")}, []string{"kind", "n", "records", "counts", "lattice"}},
		{[]string{"-json", "-dag", dump}, []string{"nodes", "edges", "issues"}},
		{[]string{"-json", "-critical", dump}, []string{"critical_path"}},
		{[]string{"-json", "-report", dump}, []string{"kind", "time_base", "counters", "histograms", "spans", "faults"}},
		{[]string{"-json", "-diff", dump, dump}, []string{"a", "b", "time_base", "counter_deltas", "only_in_a", "only_in_b", "identical"}},
	}
	for _, tc := range cases {
		code, out, errb := runCLI(t, tc.args...)
		if code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", tc.args, code, errb)
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(out), &m); err != nil {
			t.Fatalf("%v: not JSON: %v\n%s", tc.args, err, out)
		}
		for _, k := range tc.keys {
			if _, ok := m[k]; !ok {
				t.Errorf("%v: output missing key %q: %v", tc.args, k, m)
			}
		}
	}
}

func TestExitCodes(t *testing.T) {
	dump := filepath.Join("testdata", "detect.dump.jsonl")
	trace := filepath.Join("testdata", "sample.json")

	// Usage and IO errors → 2.
	for _, args := range [][]string{
		{},                        // no input
		{"a", "b"},                // too many inputs
		{"-dag", "-report", dump}, // exclusive modes
		{"no-such-file.json"},     // missing file
		{"-dag", trace},           // -dag needs a dump
		{"-critical", trace},      // -critical needs a dump
		{"-diff", "missing.jsonl", dump},
	} {
		if code, _, _ := runCLI(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}

	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runCLI(t, bad); code != 2 {
		t.Error("corrupt input not reported as exit 2")
	}
}

// TestHostileTraceHeaders: a trace header may claim any process count. The
// summary, text and -json, once sized its index and its lattice input by
// it — makeslice panics at 2^62−1, 24 GB at 10^9 — and listed one line per
// process up to the highest one with a record. Now neither the decoders
// nor the summary allocate or print by N until a non-empty stamp has shown
// N to be real: an empty stamp is no stamp, and the whole run allocates
// within the trace decoders' fuzz bound. A stamp of the wrong length is a
// decode error.
func TestHostileTraceHeaders(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, in := range []string{
		`{"n": 4611686018427387903, "records": []}`,
		`{"n": 1000000000, "records": [{"proc": 2, "type": "c"}]}`,
		`{"n": 1000000000, "records": [{"proc": 999999998, "type": "c"}]}`,
		`{"n": 4611686018427387903, "records": [{"proc": 0, "type": "n", "vector": []}]}`,
		"{\"n\":4611686018427387903}\n",
		"{\"n\":4611686018427387903}\n{\"proc\":0,\"type\":\"n\",\"vector\":[]}\n",
	} {
		path := write("hostile.json", in)
		for _, args := range [][]string{{path}, {"-json", path}} {
			least := ^uint64(0)
			var code int
			var out, errb string
			for range 3 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				code, out, errb = runCLI(t, args...)
				runtime.ReadMemStats(&after)
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			if code != 0 {
				t.Errorf("%v on %q: exit %d, stderr %s", args, in, code, errb)
			}
			if limit := uint64(128*len(in) + 4096); least > limit {
				t.Errorf("%v on %q: allocated %d bytes, limit %d", args, in, least, limit)
			}
			if args[0] == path && (!strings.Contains(out, "no events (") || strings.Count(out, "\n") > 10) {
				t.Errorf("%v on %q: the silent processes are not folded:\n%s", args, in, out)
			}
		}
	}
	mismatched := write("mismatched.json", `{"n": 2, "records": [{"proc": 0, "type": "n", "vector": [1, 2, 3, 4, 5]}]}`)
	if code, _, errb := runCLI(t, mismatched); code != 2 || !strings.Contains(errb, "vector of 5 entries") {
		t.Errorf("a 5-entry stamp in a 2-process trace: exit %d, stderr %q; want 2 and the stamp named", code, errb)
	}
}

// TestWideTraceSurveyStops: a trace with more processes than the lattice
// report's 24-event budget keeps one event per process, and 34
// independent senses span 2³⁴ consistent cuts. The survey must stop at
// its cut limit, print the count as a lower bound and flag the -json
// output as truncated, in well under a second.
func TestWideTraceSurveyStops(t *testing.T) {
	const n = 34
	var recs []string
	for i := 0; i < n; i++ {
		vec := make([]string, n)
		for j := range vec {
			vec[j] = "0"
		}
		vec[i] = "1"
		recs = append(recs, fmt.Sprintf(`{"proc": %d, "type": "n", "at": %d, "vector": [%s], "attr": "x", "value": 1}`,
			i, 1000*(i+1), strings.Join(vec, ", ")))
	}
	path := filepath.Join(t.TempDir(), "wide.json")
	body := fmt.Sprintf(`{"n": %d, "records": [%s]}`, n, strings.Join(recs, ",\n"))
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	code, out, errb := runCLI(t, path)
	if code != 0 || !strings.Contains(out, "at least 262144 consistent cuts of 17179869184 possible") {
		t.Errorf("exit %d, stderr %q, lattice line not a lower bound:\n%s", code, errb, out)
	}
	code, out, errb = runCLI(t, "-json", path)
	var doc struct {
		Lattice struct {
			Cuts      int64 `json:"cuts"`
			Truncated bool  `json:"truncated"`
		} `json:"lattice"`
	}
	if err := json.Unmarshal([]byte(out), &doc); code != 0 || err != nil {
		t.Fatalf("-json: exit %d, stderr %q, decode %v", code, errb, err)
	}
	if doc.Lattice.Cuts != 1<<18 || !doc.Lattice.Truncated {
		t.Errorf("-json lattice %+v, want 262144 cuts, truncated", doc.Lattice)
	}
	t.Logf("both runs took %v", time.Since(start))
}

// mutateDump decodes the fixture, applies f, and writes the result to a
// temp file.
func mutateDump(t *testing.T, f func(*flight.Dump)) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "detect.dump.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := flight.DecodeJSONL(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	f(d)
	path := filepath.Join(t.TempDir(), "mutated.dump.jsonl")
	var buf bytes.Buffer
	if err := d.EncodeJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestValidationFindingsExitOne: a dump violating the clock rules exits
// 1 in both summary and -dag modes.
func TestValidationFindingsExitOne(t *testing.T) {
	bad := mutateDump(t, func(d *flight.Dump) {
		d.Events[4].Clock = 1 // second sense reuses clock 1: SVC1 violation
	})
	if code, out, _ := runCLI(t, bad); code != 1 || !strings.Contains(out, "INCONSISTENT") {
		t.Errorf("summary of bad dump: exit %d\n%s", code, out)
	}
	if code, _, _ := runCLI(t, "-dag", bad); code != 1 {
		t.Error("-dag of bad dump did not exit 1")
	}
}

func TestCriticalWithoutDetectExitOne(t *testing.T) {
	noDetect := mutateDump(t, func(d *flight.Dump) {
		d.Events = d.Events[:len(d.Events)-1]
	})
	if code, _, errb := runCLI(t, "-critical", noDetect); code != 1 || !strings.Contains(errb, "no detection") {
		t.Errorf("exit %d, stderr %q", code, errb)
	}
}

// TestDiff: identical dumps → 0; a dropped event or counter delta → 1;
// mismatched time bases → refused with 2.
func TestDiff(t *testing.T) {
	dump := filepath.Join("testdata", "detect.dump.jsonl")
	if code, out, _ := runCLI(t, "-diff", dump, dump); code != 0 || !strings.Contains(out, "identical") {
		t.Errorf("self-diff: exit %d\n%s", code, out)
	}

	// The positional input is side "a"; the -diff file is side "b".
	// Remove p1's drop record from "a": it must surface as only-in-b.
	missing := mutateDump(t, func(d *flight.Dump) {
		d.Events = append(d.Events[:5], d.Events[6:]...)
		d.Metrics = nil
	})
	code, out, _ := runCLI(t, "-diff", dump, missing)
	if code != 1 || !strings.Contains(out, "only in b: drop p1") {
		t.Errorf("diff missing event: exit %d\n%s", code, out)
	}

	wall := mutateDump(t, func(d *flight.Dump) { d.TimeBase = "wall-us" })
	code, _, errb := runCLI(t, "-diff", dump, wall)
	if code != 2 || !strings.Contains(errb, "refusing to diff across time bases") {
		t.Errorf("mismatched bases: exit %d, stderr %q", code, errb)
	}
}

// TestReportWithoutMetricsExitOne: reports need an embedded snapshot.
func TestReportWithoutMetricsExitOne(t *testing.T) {
	bare := mutateDump(t, func(d *flight.Dump) { d.Metrics = nil })
	if code, _, errb := runCLI(t, "-report", bare); code != 1 || !strings.Contains(errb, "no metrics") {
		t.Errorf("exit %d, stderr %q", code, errb)
	}
}

// TestFaultRunDumpRoundTrip is the acceptance check: a DES fault-plan
// run produces dumps that tracedump validates clean (acyclic DAG, clock
// rules hold), and the serialized bytes are identical across runs — the
// dump pipeline is deterministic regardless of test parallelism.
func TestFaultRunDumpRoundTrip(t *testing.T) {
	runOnce := func() []byte {
		n := 3
		h := core.NewHarness(core.HarnessConfig{
			Seed: 23, N: n, Kind: core.VectorStrobe,
			Delay:    sim.NewDeltaBounded(20 * sim.Millisecond),
			Pred:     core.ConjunctiveGlobal(predicate.MustParse("p@0 == 1"), n),
			Modality: predicate.Instantaneously,
			Horizon:  60 * sim.Second,
			Faults: faults.NewPlan().
				Crash(1, 20*sim.Second).
				Recover(1, 30*sim.Second),
			Obs:    obs.NewRegistry(),
			Flight: flight.New(n+1, 128),
		})
		for i := 0; i < n; i++ {
			obj := h.World.AddObject("obj", nil)
			h.Bind(i, obj, "p", "p")
			world.Toggler{Obj: obj, Attr: "p", MeanHigh: 3 * sim.Second,
				MeanLow: 2 * sim.Second}.Install(h.World, 60*sim.Second)
		}
		h.Run()
		if len(h.Dumps) == 0 {
			t.Fatal("fault-plan run produced no dumps")
		}
		var buf bytes.Buffer
		for _, d := range h.Dumps {
			if err := d.EncodeJSONL(&buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}

	a := runOnce()
	if !bytes.Equal(a, runOnce()) {
		t.Fatal("dump bytes differ across identical runs")
	}

	// Write the first dump out and push it through the CLI: summary and
	// -dag must both validate it clean.
	first := a
	if i := bytes.Index(a[1:], []byte(`{"flight":`)); i >= 0 {
		first = a[:i+1]
	}
	path := filepath.Join(t.TempDir(), "fault.dump.jsonl")
	if err := os.WriteFile(path, first, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{path}, {"-dag", path}, {"-critical", path}} {
		code, out, errb := runCLI(t, args...)
		if args[0] == "-critical" && code == 1 {
			continue // first dump may be a crash dump with no detection
		}
		if code != 0 {
			t.Errorf("%v: exit %d\nstdout: %s\nstderr: %s", args, code, out, errb)
		}
	}
}
