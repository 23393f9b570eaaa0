package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// The start-up probe re-executes the running binary; under `go test`
// that is the test binary, which must then exit at once too.
func TestMain(m *testing.M) {
	if os.Getenv(probeEnv) != "" {
		return
	}
	os.Exit(m.Run())
}

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	var m manifest
	if err := readJSON(filepath.Join("..", "..", "BENCHMARK.json"), &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSmoke runs all five workloads at smoke size through the code path
// the benchmark uses, untraced and traced, and checks what the
// benchmark promises about names, units, BENCHMARK.json and digests.
func TestSmoke(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	golden, err := readGolden()
	if err != nil {
		t.Fatal(err)
	}
	man := readManifest(t)
	declared := map[string]metricDef{}
	for _, d := range append(append([]metricDef(nil), man.EndToEnd...), man.PerLayer...) {
		declared[d.Name] = d
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	all := specs(smokeSize, runtime.NumCPU())
	if len(man.Workloads) != len(all) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(man.Workloads), len(all))
	}
	digests := map[string]string{}
	for i, s := range all {
		if i < len(man.Workloads) && (man.Workloads[i].Name != s.name || man.Workloads[i].Why != s.why) {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q (name or why differs)",
				i, man.Workloads[i].Name, s.name)
		}
		for _, trace := range []bool{false, true} {
			r := runWorkload(s, options{
				size: smokeSize, seed: 1, minReps: 1, trace: trace,
				tmpDir: t.TempDir(), golden: golden, self: self, logf: t.Logf,
			})
			wantOps := 1 // one round: one rep, or one untraced and one traced
			if trace {
				wantOps = 2
			}
			if !r.Correct || r.FailedOps != 0 || r.Ops != wantOps {
				t.Fatalf("%s trace=%v: correct=%v ops=%d failed=%d errors=%v",
					s.name, trace, r.Correct, r.Ops, r.FailedOps, r.Errors)
			}
			if _, pinned := golden[goldenKey(smokeSize, s.name)]; !pinned {
				t.Errorf("%s: no pinned digest in golden.json", s.name)
			}
			if prev, ok := digests[s.name]; ok && prev != r.Digest {
				t.Errorf("%s: traced digest %s != untraced %s", s.name, r.Digest, prev)
			}
			digests[s.name] = r.Digest

			var line struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			data, err := json.Marshal(r.contractLine())
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &line); err != nil {
				t.Fatal(err)
			}
			defs := endToEnd
			if trace {
				defs = perLayerDefs
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics printed, %d defined", s.name, trace, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				got, ok := line.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s not printed", s.name, d.Name)
				case !nameRE.MatchString(d.Name):
					t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.Name)
				case !unitRE.MatchString(got.Unit):
					t.Errorf("metric %s has unit %q", d.Name, got.Unit)
				case declared[d.Name] != d:
					t.Errorf("metric %s: BENCHMARK.json has %+v, the benchmark %+v", d.Name, declared[d.Name], d)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", s.name, d.Name, got.Value)
				}
			}
			if trace {
				checkSpans(t, s, r.spans)
			}
		}
	}
	if len(declared) != len(endToEnd)+len(perLayerDefs) {
		t.Errorf("BENCHMARK.json declares %d metrics, the benchmark defines %d",
			len(declared), len(endToEnd)+len(perLayerDefs))
	}
	if digests["fleet-wide"] != digests["fleet-wide-par"] {
		t.Errorf("fleet-wide digest %s != fleet-wide-par %s", digests["fleet-wide"], digests["fleet-wide-par"])
	}
}

// checkSpans: every traced rep has a root span that contains its layer
// spans, one per layer boundary.
func checkSpans(t *testing.T, s spec, l *spanLog) {
	t.Helper()
	want := []string{"rep", "workload.decode", "core.build", "sim.run", "core.score"}
	if !s.isFleet() {
		want = []string{"rep"}
		for _, id := range tableIDs {
			want = append(want, "experiments."+id)
		}
	}
	if len(l.spans) != len(want) {
		t.Fatalf("%s: %d spans, want %d", s.name, len(l.spans), len(want))
	}
	for i, sp := range l.spans {
		if sp.Name != want[i] {
			t.Errorf("%s: span %d is %q, want %q", s.name, i, sp.Name, want[i])
		}
		if sp.EndUs < sp.StartUs {
			t.Errorf("%s: span %s ends before it starts", s.name, sp.Name)
		}
		if i > 0 && (sp.Parent != 0 || sp.StartUs < l.spans[0].StartUs || sp.EndUs > l.spans[0].EndUs) {
			t.Errorf("%s: span %s is not inside its rep", s.name, sp.Name)
		}
	}
}

func TestVerdict(t *testing.T) {
	d := metricDef{Name: "wall_s", Unit: "s", Better: lower, Bound: 0.08}
	up := metricDef{Name: "rate", Unit: "1/s", Better: higher, Bound: 0.08}
	tight := func(m float64) dist { return dist{Median: m, Min: m * 0.99, Max: m * 1.01, N: 6} }
	for _, c := range []struct {
		name     string
		def      metricDef
		old, new dist
		want     string
	}{
		{"within the bound", d, tight(3.0), tight(3.1), same},
		{"slower than the bound", d, tight(3.0), tight(3.3), worse},
		{"faster than the bound", d, tight(3.0), tight(2.7), better},
		{"higher is better, fell", up, tight(100), tight(90), worse},
		{"higher is better, rose", up, tight(100), tight(110), better},
		{"noisy and overlapping", d, dist{Median: 3.0, Min: 2.8, Max: 3.3, N: 6}, tight(3.1), unresolved},
		{"noisy but disjoint", d, dist{Median: 3.0, Min: 2.8, Max: 3.2, N: 6}, tight(3.6), worse},
		{"noisy, every new rep faster", d, dist{Median: 3.0, Min: 2.8, Max: 3.2, N: 6}, tight(2.5), better},
	} {
		if got := verdict(c.def, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	mk := func(wall float64, failed int) report {
		e2e := map[string]dist{}
		for _, d := range endToEnd {
			e2e[d.Name] = dist{Median: 1, Min: 1, Max: 1, N: 4}
		}
		e2e["wall_s"] = dist{Median: wall, Min: wall, Max: wall, N: 4}
		return report{Results: []*result{{Workload: "fleet-wide", Ops: 4, FailedOps: failed, EndToEnd: e2e}}}
	}
	dir := t.TempDir()
	write := func(name string, r report) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", mk(3.0, 0))
	for _, c := range []struct {
		name     string
		new      report
		code     int
		contains string
	}{
		{"same", mk(3.05, 0), 0, "same"},
		{"worse", mk(4.5, 0), 1, "worse"},
		{"better", mk(2.0, 0), 0, "better"},
		{"more failures", mk(3.0, 1), 1, "failed_ops/ops old 0/4, new 1/4"},
	} {
		var out bytes.Buffer
		if code := compareFiles(&out, base, write(c.name+".json", c.new)); code != c.code {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, code, c.code, out.String())
		}
		if !strings.Contains(out.String(), c.contains) {
			t.Errorf("%s: output lacks %q:\n%s", c.name, c.contains, out.String())
		}
		if !strings.Contains(out.String(), "base 3.0000 s") {
			t.Errorf("%s: ratio printed without its base:\n%s", c.name, out.String())
		}
	}
}
