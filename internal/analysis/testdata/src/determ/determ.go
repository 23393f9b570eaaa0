// Package determ seeds every determinism violation plus the sanctioned
// idioms, for the golden test.
package determ

import (
	"math/rand"
	"os"
	"sort"
	"time"
)

// Wall leaks real time into a deterministic package.
func Wall() int64 {
	return time.Now().Unix() // want `time.Now in deterministic package determ`
}

// Elapsed derives from the wall clock without naming time.Now.
func Elapsed(start time.Time) int64 {
	return time.Since(start).Microseconds() // want `time.Since in deterministic package determ`
}

// Timeout schedules against real time.
func Timeout() <-chan time.Time {
	return time.After(time.Second) // want `time.After in deterministic package determ`
}

// Metronome paces by real time.
func Metronome() <-chan time.Time {
	return time.Tick(time.Second) // want `time.Tick in deterministic package determ`
}

// Env makes the run depend on ambient machine state.
func Env() string {
	return os.Getenv("SEED") // want `os.Getenv in deterministic package determ`
}

// Listing depends on the machine's filesystem.
func Listing() ([]os.DirEntry, error) {
	return os.ReadDir(".") // want `os.ReadDir in deterministic package determ`
}

// TwoReads reads the wall clock twice: every seed is reported at its
// own site, not only the first one in the function.
func TwoReads() int64 {
	a := time.Now().Unix()       // want `time.Now in deterministic package determ`
	return a + time.Now().Unix() // want `time.Now in deterministic package determ`
}

// WallAllowed is the annotated legitimate use: suppressed, no finding.
func WallAllowed() int64 {
	return time.Now().Unix() //lint:allow determinism(fixture: sanctioned wall-clock use)
}

// GlobalRand draws from the process-wide un-seeded source.
func GlobalRand() int {
	return rand.Intn(6) // want `global math/rand.Intn in deterministic package determ`
}

// SeededRand owns its stream; not flagged.
func SeededRand(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(6)
}

// LeakyOrder lets map iteration order reach the output.
func LeakyOrder(m map[string]int) []string {
	var out []string
	for k, v := range m { // want `map range in deterministic package determ: iteration order is randomized`
		if v > 0 {
			out = append(out, k)
		}
	}
	return out
}

// CollectThenSort is the sanctioned idiom; not flagged.
func CollectThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// The annotations below exercise the allow grammar's own diagnostics:
// an allow that suppresses nothing, an empty reason, an unknown
// analyzer name, and a comment that does not parse at all. The want
// expectations use the +1 form because the finding lands on the
// full-line comment itself.

// want+1 `unused //lint:allow determinism annotation`
//lint:allow determinism(fixture: nothing suppressed on this line)

// want+1 `needs a non-empty reason`
//lint:allow determinism()

// want+1 `names unknown analyzer nosuchanalyzer`
//lint:allow nosuchanalyzer(fixture reason)

// want+1 `malformed //lint:allow`
//lint:allow determinism missing parens
