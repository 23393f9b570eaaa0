package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// goldenJSON pins the seed-1 output digest of every workload at both
// sizes, keyed "<size>/<workload>". A digest moves only when simulated
// behaviour moves, so a performance change must leave this file alone.
//
//go:embed golden.json
var goldenJSON []byte

func readGolden() (map[string]string, error) {
	golden := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return golden, nil
}

// writeGolden runs every workload once at seed 1, at both sizes, and
// rewrites golden.json in the source tree (run it from the repository
// root; the new digests take effect at the next build).
func writeGolden(self string) error {
	tmp, err := os.MkdirTemp(buildDir, "golden-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	golden := map[string]string{}
	for _, sz := range []sizes{fullSize, smokeSize} {
		for _, s := range specs(sz, runtime.NumCPU()) {
			r := runWorkload(s, options{
				size: sz, seed: 1, minReps: 1, tmpDir: tmp, self: self,
				logf: func(string, ...any) {},
			})
			if !r.Correct {
				return fmt.Errorf("%s at %s size: %v", s.name, sz.name, r.Errors)
			}
			golden[goldenKey(sz, s.name)] = r.Digest
			fmt.Printf("%s %s\n", goldenKey(sz, s.name), r.Digest)
		}
	}
	return writeJSON(filepath.Join("cmd", "bench", "golden.json"), golden)
}
