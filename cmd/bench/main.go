// Command bench is the benchmark of this repository: five workloads
// pushed through the public API of every layer, six end-to-end metrics
// per workload, and per-layer spans, counts and drills from a separate
// traced run. See README.md in this directory for what each workload is
// for and which layer metric should move which end-to-end metric.
//
// Usage:
//
//	bench [-seed N] [-seconds S] [-o results.json] [-spans spans.json]
//	bench -workload fleet-wide -trace 0|1 [-seed N] [-seconds S]
//	bench -compare old.json new.json
//	bench -update-golden
//
// Without -workload every workload runs twice (untraced, then traced),
// each time in a fresh child process of this binary, so heap and GC
// state never leak from one workload into the next. With -workload one
// run happens in this process and the last line of standard output is
// one JSON object: the end-to-end metrics with -trace 0, the per-layer
// metrics with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// probeEnv makes main return at once: the start-up probe of the tables
// workload times exactly that.
const probeEnv = "PERVASIVE_BENCH_PROBE"

// buildDir holds everything a run leaves behind (.gitignore names it).
const buildDir = ".bench_build"

func runProbe(self string) error {
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), probeEnv+"=1")
	return cmd.Run()
}

// header describes the box and the run; it leads every output.
type header struct {
	Commit    string   `json:"commit"`
	Go        string   `json:"go"`
	CPU       string   `json:"cpu"`
	NProc     int      `json:"nproc"`
	Seed      uint64   `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Workloads []string `json:"workloads"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // not a git checkout
	}
	return strings.TrimSpace(string(out))
}

func newHeader(seed uint64, seconds float64, specs []spec) header {
	h := header{
		Commit: commit(), Go: runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
		CPU: cpuModel(), NProc: runtime.NumCPU(), Seed: seed, Seconds: seconds,
	}
	for _, s := range specs {
		line := fmt.Sprintf("%s: GOMAXPROCS %d", s.name, s.gomaxprocs)
		if s.isFleet() {
			line += fmt.Sprintf(", Shards %d, Workers %d, p %d, horizon %v", s.cfg.Shards, s.cfg.Workers, s.p, s.horizon)
		} else {
			line += fmt.Sprintf(", Parallelism %d, %d experiments", s.parallelism, len(tableIDs))
		}
		h.Workloads = append(h.Workloads, line)
	}
	return h
}

func (h header) print() {
	fmt.Printf("bench: commit %s, %s, %s, nproc %d, seed %d, %.0f s per run\n",
		h.Commit, h.Go, h.CPU, h.NProc, h.Seed, h.Seconds)
	for _, w := range h.Workloads {
		fmt.Println("  " + w)
	}
}

// report is the -o file: what -compare reads.
type report struct {
	Header  header    `json:"header"`
	Results []*result `json:"results"`
}

func fatal(code int, format string, a ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", a...)
	os.Exit(code)
}

func main() {
	if os.Getenv(probeEnv) != "" {
		return
	}
	name := flag.String("workload", "", "run this one workload in this process (default: all, each in a child process)")
	seed := flag.Uint64("seed", 1, "workload seed; the pinned digests in golden.json apply to seed 1")
	seconds := flag.Float64("seconds", 15, "measuring budget of one run")
	trace := flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
	out := flag.String("o", "", "write the results as JSON to this file (the input of -compare)")
	spansPath := flag.String("spans", filepath.Join(buildDir, "spans.json"), "write the traced reps' spans to this file")
	compare := flag.Bool("compare", false, "compare two -o files: bench -compare old.json new.json")
	updateGolden := flag.Bool("update-golden", false, "re-pin the seed-1 digests in cmd/bench/golden.json (only for a change of simulated behaviour)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "-compare needs two result files")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	// Each workload pins its own GOMAXPROCS; an inherited setting would
	// silently change what "nproc" means for the parallel ones.
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		fatal(2, "GOMAXPROCS=%s is set; unset it, every workload sets its own", v)
	}
	if *trace != 0 && *trace != 1 {
		fatal(2, "-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fatal(2, "-seconds must be positive")
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fatal(1, "%v", err)
	}
	self, err := os.Executable()
	if err != nil {
		fatal(1, "%v", err)
	}

	switch {
	case *updateGolden:
		if err := writeGolden(self); err != nil {
			fatal(1, "%v", err)
		}
	case *name == "":
		os.Exit(runAll(self, *seed, *seconds, *out, *spansPath))
	default:
		os.Exit(runOne(self, *name, *seed, *seconds, *trace == 1, *out, *spansPath))
	}
}

// runOne runs one workload here and prints the one-line JSON result.
func runOne(self, name string, seed uint64, seconds float64, trace bool, out, spansPath string) int {
	s, ok := specByName(fullSize, runtime.NumCPU(), name)
	if !ok {
		fatal(2, "unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	golden, err := readGolden()
	if err != nil {
		fatal(1, "%v", err)
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fatal(1, "%v", err)
	}
	defer os.RemoveAll(tmp)

	// A traced round is two reps, so two rounds there measure as much
	// as three untraced reps do.
	minReps := 3
	if trace {
		minReps = 2
	}
	hdr := newHeader(seed, seconds, []spec{s})
	hdr.print()
	r := runWorkload(s, options{
		size: fullSize, seed: seed, seconds: seconds, minReps: minReps, trace: trace,
		tmpDir: tmp, golden: golden, self: self,
		logf: func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) },
	})
	r.print(os.Stdout)

	if out != "" {
		if err := writeJSON(out, report{Header: hdr, Results: []*result{r}}); err != nil {
			fatal(1, "%v", err)
		}
	}
	if trace && spansPath != "" {
		if err := writeSpans(spansPath, r.spans.tagged(name)); err != nil {
			fatal(1, "%v", err)
		}
	}
	line, err := json.Marshal(r.contractLine())
	if err != nil {
		fatal(1, "%v", err)
	}
	fmt.Println(string(line))
	if !r.Correct {
		return 1
	}
	return 0
}

// contractLine is the last line of a -workload run.
func (r *result) contractLine() map[string]any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if r.Traced {
		for _, d := range perLayerDefs {
			metrics[d.Name] = value{r.PerLayer[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			metrics[d.Name] = value{r.EndToEnd[d.Name].Median, d.Unit}
		}
	}
	return map[string]any{
		"correct": r.Correct, "attempted": max(r.Ops, 1), "failed": r.FailedOps, "metrics": metrics,
	}
}

// runAll runs every workload untraced and traced, each in a child of
// this binary, and merges what the children wrote.
func runAll(self string, seed uint64, seconds float64, out, spansPath string) int {
	all := specs(fullSize, runtime.NumCPU())
	rep := report{Header: newHeader(seed, seconds, all)}
	rep.Header.print()
	tmp, err := os.MkdirTemp(buildDir, "set-")
	if err != nil {
		fatal(1, "%v", err)
	}
	defer os.RemoveAll(tmp)

	code := 0
	var spans []span
	for _, s := range all {
		merged := &result{}
		for trace := 0; trace <= 1; trace++ {
			resPath := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", s.name, trace))
			spPath := filepath.Join(tmp, s.name+"-spans.json")
			cmd := exec.Command(self, "-workload", s.name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-o", resPath, "-spans", spPath)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s -trace %d: %v\n", s.name, trace, err)
				code = 1
			}
			var child report
			if err := readJSON(resPath, &child); err != nil || len(child.Results) != 1 {
				fmt.Fprintf(os.Stderr, "bench: %s -trace %d left no result: %v\n", s.name, trace, err)
				code = 1
				continue
			}
			r := *child.Results[0]
			if trace == 0 {
				*merged = r
				continue
			}
			merged.PerLayer = r.PerLayer
			merged.Correct = merged.Correct && r.Correct
			merged.Errors = append(merged.Errors, r.Errors...)
			if r.Digest != merged.Digest {
				merged.fail("traced run digest %.12s != untraced %.12s", r.Digest, merged.Digest)
			}
			var sp []span
			if err := readJSON(spPath, &sp); err == nil {
				for i := range sp {
					if sp[i].Parent >= 0 {
						sp[i].Parent += len(spans) // Parent indexes the merged file
					}
				}
				spans = append(spans, sp...)
			}
		}
		rep.Results = append(rep.Results, merged)
	}

	// fleet-wide and fleet-wide-par replay one trace through different
	// shard counts: whatever the seed, their outputs must be identical.
	digests := map[string]string{}
	for _, r := range rep.Results {
		digests[r.Workload] = r.Digest
		if !r.Correct {
			code = 1
		}
	}
	if a, b := digests["fleet-wide"], digests["fleet-wide-par"]; a != b {
		fmt.Fprintf(os.Stderr, "bench: fleet-wide digest %.12s != fleet-wide-par %.12s\n", a, b)
		code = 1
	}

	if out != "" {
		if err := writeJSON(out, rep); err != nil {
			fatal(1, "%v", err)
		}
	}
	if spansPath != "" {
		if err := writeSpans(spansPath, spans); err != nil {
			fatal(1, "%v", err)
		}
		fmt.Printf("bench: %d spans written to %s\n", len(spans), spansPath)
	}
	return code
}

// print lists every metric of the run by name, with its unit.
func (r *result) print(w *os.File) {
	kind := "timed reps"
	if r.Traced {
		kind = "reps, every second one traced"
	}
	fmt.Fprintf(w, "%s: seed %d, 1 warm-up + %d %s, ops %d, failed_ops %d, digest %.12s, correct %v\n",
		r.Workload, r.Seed, r.Ops, kind, r.Ops, r.FailedOps, r.Digest, r.Correct)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  ERROR %s\n", e)
	}
	if !r.Traced {
		for _, d := range endToEnd {
			v := r.EndToEnd[d.Name]
			fmt.Fprintf(w, "  %-14s %12.4f %-4s (median of %d, min %.4f, max %.4f)\n",
				d.Name, v.Median, d.Unit, v.N, v.Min, v.Max)
		}
		return
	}
	for _, d := range perLayerDefs {
		fmt.Fprintf(w, "  %-34s %16.4f %s\n", d.Name, r.PerLayer[d.Name], d.Unit)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
