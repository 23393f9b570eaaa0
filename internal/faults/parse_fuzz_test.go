package faults

import (
	"runtime"
	"testing"
)

// parseAllocBytes is what one Parse of spec allocates: the least of three
// TotalAlloc deltas. The delta is process-wide, so whatever the runtime
// allocates meanwhile lands in it too; the parse is deterministic, so that
// noise only adds and the minimum is the parse's own cost.
func parseAllocBytes(spec string) uint64 {
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Parse(spec)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// FuzzFaultsParse feeds arbitrary text to Parse, the `-faults` flag's
// parser. It must return a plan or an error, never panic, and allocate no
// more than a constant times the input's length. The constant is 128:
// an error quotes the offending clause, the time package's error quotes
// the duration again, and a byte that is not UTF-8 quotes as four. A plan
// must name no negative process and no duplicate probability outside
// [0, 1], and its String form must parse back to a plan that prints the
// same (the input itself may spell the plan differently: spaces, "+1",
// sub-µs digits).
// The checked-in corpus in testdata/fuzz/FuzzFaultsParse holds a valid
// plan, a respelled one, the process indices that crashed
// core.ScheduleFaults, a negative process and member, a NaN probability,
// an unterminated clause and a duration of unquotable bytes.
func FuzzFaultsParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		if got, limit := parseAllocBytes(spec), uint64(128*len(spec)+4096); got > limit {
			t.Fatalf("Parse allocated %d bytes for a %d-byte input (limit %d): %q", got, len(spec), limit, spec)
		}
		p, err := Parse(spec)
		if err != nil {
			if p != nil {
				t.Fatalf("Parse returned both a plan and %v", err)
			}
			return
		}
		for _, e := range p.Events {
			if e.Proc < 0 {
				t.Fatalf("Parse(%q) accepted process %d", spec, e.Proc)
			}
		}
		for _, pt := range p.Partitions {
			for _, g := range pt.Groups {
				for _, m := range g {
					if m < 0 {
						t.Fatalf("Parse(%q) accepted member %d", spec, m)
					}
				}
			}
		}
		for _, w := range p.Dups {
			if !(w.P >= 0 && w.P <= 1) {
				t.Fatalf("Parse(%q) accepted probability %v", spec, w.P)
			}
		}
		once := p.String()
		again, err := Parse(once)
		if err != nil {
			t.Fatalf("String form %q of %q does not parse: %v", once, spec, err)
		}
		if twice := again.String(); twice != once {
			t.Fatalf("String is not a fixed point after one round\nfirst:  %s\nsecond: %s", once, twice)
		}
	})
}
