package flight

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pervasive/internal/clock"
	"pervasive/internal/obs"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// What DecodeJSONL made of one input. The tallies prove the fixed-seed draw
// reaches every way a dump file can be wrong, and the one way it is right.
const (
	outSyntax  = iota // not a dump's JSON: bad syntax, a wrong field type, a line of neither shape, a bad metrics block
	outVersion        // a header of another format version
	outCount          // a process count below 1
	outKind           // an event of no known kind
	outProc           // an event at a process outside 0..N−1
	outVector         // a vector stamp of neither 0 nor N entries
	outDecoded        // a dump
	outCases
)

// decodeOutcome classifies a decode error by the check that raised it.
func decodeOutcome(t *testing.T, err error) int {
	t.Helper()
	for out, marks := range [outDecoded][]string{
		outSyntax:  {"decode", "neither event nor metrics"},
		outVersion: {"unsupported dump version"},
		outCount:   {"invalid process count"},
		outKind:    {"unknown kind"},
		outProc:    {"out of range"},
		outVector:  {"entries in a dump of"},
	} {
		for _, m := range marks {
			if strings.Contains(err.Error(), m) {
				return out
			}
		}
	}
	t.Fatalf("decode returned an error no check owns: %v", err)
	return -1
}

// decodeAllocBytes is what one decode of data allocates: the least of three
// TotalAlloc deltas. The delta is process-wide, so whatever the runtime
// allocates meanwhile lands in it too; the decode is deterministic, so that
// noise only adds and the minimum is the decode's own cost.
func decodeAllocBytes(data []byte) uint64 {
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		DecodeJSONL(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// sameDump compares what an encoding carries besides the metrics block,
// which the byte fixed point covers: the header and the events.
func sameDump(a, b *Dump) bool {
	a2, b2 := *a, *b
	a2.Metrics, b2.Metrics = nil, nil
	return reflect.DeepEqual(a2, b2)
}

// encode writes d as a JSONL dump.
func encode(t *testing.T, d *Dump) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.EncodeJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeHostile feeds arbitrary bytes to DecodeJSONL. It must return an
// error or a dump, never panic, and allocate no more than 128 bytes per
// input byte plus 4096. A dump must hold only events of a known kind at a
// process in 0..N−1, each unstamped (Vector nil) or stamped with N
// entries, and survive EncodeJSONL → DecodeJSONL, with
// EncodeJSONL a fixed point from then on (the input may spell the dump
// differently: spacing, field order, an empty list, a metrics line in the
// middle).
func decodeHostile(t *testing.T, data []byte) int {
	t.Helper()
	if got, limit := decodeAllocBytes(data), uint64(128*len(data)+4096); got > limit {
		t.Fatalf("decode allocated %d bytes for a %d-byte input (limit %d): %.200q", got, len(data), limit, data)
	}
	d, err := DecodeJSONL(bytes.NewReader(data))
	if err != nil {
		if d != nil {
			t.Fatalf("decode returned both a dump and %v", err)
		}
		return decodeOutcome(t, err)
	}
	for i, ev := range d.Events {
		if ParseKind(ev.Kind) == KindNone || ev.Proc < 0 || ev.Proc >= d.N ||
			(ev.Vector != nil && len(ev.Vector) != d.N) {
			t.Fatalf("event %d decoded as %+v in a dump of %d processes: %.200q", i, ev, d.N, data)
		}
	}
	enc := encode(t, d)
	back, err := DecodeJSONL(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("re-encoded dump does not decode: %v\ninput %q\nre-encoded %s", err, data, enc)
	}
	if !sameDump(d, back) {
		t.Fatalf("dump changed across EncodeJSONL → DecodeJSONL\nfirst:  %+v\nsecond: %+v", d, back)
	}
	if again := encode(t, back); !bytes.Equal(again, enc) {
		t.Fatalf("EncodeJSONL is not a fixed point\nfirst:  %s\nsecond: %s", enc, again)
	}
	return outDecoded
}

// drawDump draws a small valid dump: every event kind, peers and none,
// now and then a vector stamp on a sense or a metrics snapshot.
func drawDump(r *stats.RNG) *Dump {
	n := 1 + r.Intn(5)
	d := &Dump{
		Version: DumpVersion, Trigger: []string{"detect", "crash", ""}[r.Intn(3)],
		At: sim.Time(r.Intn(1 << 20)), TimeBase: []string{"virtual", "wall-us"}[r.Intn(2)], N: n,
	}
	for p := 0; p < n; p++ {
		if r.Intn(2) == 0 {
			d.Procs = append(d.Procs, p)
		}
	}
	for k := r.Intn(10); k > 0; k-- {
		ev := Event{
			Kind: kindNames[1+r.Intn(len(kindNames)-1)], Proc: r.Intn(n),
			At: sim.Time(r.Intn(1 << 20)), Peer: r.Intn(n+1) - 1,
			Epoch: r.Intn(3), Seq: uint64(r.Intn(5)), Clock: uint64(r.Intn(4)), PeerClock: uint64(r.Intn(4)),
		}
		if r.Intn(2) == 0 {
			ev.Attr, ev.Value = "x", float64(r.Intn(9)-4)/2
		}
		if ev.Kind == Sense.String() && r.Intn(2) == 0 {
			ev.Vector = make(clock.Vector, n)
			for j := range ev.Vector {
				ev.Vector[j] = uint64(r.Intn(4))
			}
		}
		d.Events = append(d.Events, ev)
	}
	if r.Intn(4) == 0 {
		reg := obs.NewRegistry()
		reg.Counter("net.sent").Add(int64(r.Intn(100)))
		snap := reg.Snapshot()
		d.Metrics = &snap
	}
	return d
}

// drawRunRecord draws a small valid run record: sense events of every
// process, each stamped with an N-entry vector when the clock kind has
// one and unstamped otherwise, now and then a metrics snapshot.
func drawRunRecord(r *stats.RNG) *Dump {
	n := 1 + r.Intn(5)
	d := &Dump{Version: DumpVersion, Trigger: RunTrigger, At: sim.Time(r.Intn(1 << 20)), TimeBase: "virtual", N: n}
	for p := 0; p < n; p++ {
		d.Procs = append(d.Procs, p)
	}
	stamped := r.Intn(2) == 0
	for k := r.Intn(10); k > 0; k-- {
		ev := Event{
			Kind: Sense.String(), Proc: r.Intn(n), At: sim.Time(r.Intn(1 << 20)), Peer: -1,
			Epoch: r.Intn(2), Seq: uint64(1 + r.Intn(5)), Attr: "x", Value: float64(r.Intn(9)-4) / 2,
		}
		if stamped {
			ev.Vector = make(clock.Vector, n)
			for j := range ev.Vector {
				ev.Vector[j] = uint64(r.Intn(4))
			}
			ev.Clock = ev.Vector[ev.Proc]
		}
		d.Events = append(d.Events, ev)
	}
	if r.Intn(4) == 0 {
		reg := obs.NewRegistry()
		reg.Counter("net.sent").Add(int64(r.Intn(100)))
		snap := reg.Snapshot()
		d.Metrics = &snap
	}
	return d
}

// damage turns a valid dump into one of the shapes a damaged or hostile
// file takes.
func damage(t *testing.T, r *stats.RNG, d *Dump) []byte {
	pick := func() *Event { // an event to spoil, appended if there is none
		if len(d.Events) == 0 {
			d.Events = append(d.Events, Event{Kind: Sense.String(), Peer: -1})
		}
		return &d.Events[r.Intn(len(d.Events))]
	}
	switch r.Intn(12) {
	case 0: // not a dump at all
		out := make([]byte, 1+r.Intn(40))
		for i := range out {
			out[i] = byte(r.Intn(256))
		}
		return out
	case 1:
		out := encode(t, d)
		return out[:r.Intn(len(out))]
	case 2:
		d.Version = []int{0, DumpVersion + 1, -1}[r.Intn(3)]
	case 3:
		d.N = -r.Intn(3)
	case 4:
		pick().Kind = []string{"", "none", "invalid", "Sense"}[r.Intn(4)]
	case 5:
		pick().Proc = []int{-1 - r.Intn(3), d.N + r.Intn(3)}[r.Intn(2)]
	case 6: // a line of neither shape, or a metrics block that fails its check
		return append(encode(t, d), []string{`{"x":1}`, `{"metrics":{"histograms":[{}]}}`, `[]`}[r.Intn(3)]...)
	case 7: // any one byte
		out := encode(t, d)
		out[r.Intn(len(out))] ^= byte(1 + r.Intn(255))
		return out
	case 8: // a huge process count: nothing may be sized by it
		d.N = []int{1e9, 1<<62 - 1}[r.Intn(2)]
	case 9: // a stamp of the wrong length; an empty one is none
		ev := pick()
		ev.Kind, ev.Vector = Sense.String(), make(clock.Vector, []int{0, 1, d.N + 1 + r.Intn(3)}[r.Intn(3)])
		if len(ev.Vector) == 0 {
			out := encode(t, d)
			return bytes.Replace(out, []byte(`"peer":`), []byte(`"vector":[],"peer":`), 1)
		}
	}
	return encode(t, d) // cases 8, 10, 11 and an empty stamp: a valid encoding
}

// TestDecodeBoundsNesting feeds an event line nested past encoding/json's
// 10 000-level limit, in the header and in an event: each is one syntax
// error within the allocation bound, not a stack overflow.
func TestDecodeBoundsNesting(t *testing.T) {
	deep := strings.Repeat("[", 10001) + strings.Repeat("]", 10001)
	for _, in := range []string{
		`{"flight":{"version":1,"n":1,"x":` + deep + `}}`,
		`{"flight":{"version":1,"n":1}}` + "\n" + `{"kind":"drop","proc":0,"x":` + deep + `}`,
	} {
		if got := decodeHostile(t, []byte(in)); got != outSyntax {
			t.Errorf("%.60s…: outcome %d, want a syntax rejection", in, got)
		}
	}
}

// TestDecodeRejectsEmptyElementsEarly pins the inputs the allocation bound
// is tightest on: long lists of empty objects, three bytes each. Decoded
// whole and checked afterwards, an empty histogram costs its 96 bytes,
// times about five for the list's growth — past 128 per input byte.
// Checked as they decode, the first one ends the decode; so does the
// first line of empty events.
func TestDecodeRejectsEmptyElementsEarly(t *testing.T) {
	empties := strings.TrimSuffix(strings.Repeat("{},", 10000), ",")
	for _, in := range []string{
		`{"flight":{"version":1,"n":1}}` + "\n" + `{"metrics":{"histograms":[` + empties + `]}}` + "\n",
		`{"flight":{"version":1,"n":1}}` + "\n" + strings.Repeat("{}\n", 10000),
	} {
		if got := decodeHostile(t, []byte(in)); got != outSyntax {
			t.Errorf("%.40s…: outcome %d, want a syntax rejection", in, got)
		}
	}
}

// surviveHostile is the property at a fixed seed over the dumps draw
// makes: every outcome is reached, nothing panics or allocates past the
// bound, and every dump that decodes round-trips.
func surviveHostile(t *testing.T, seed uint64, draw func(*stats.RNG) *Dump) {
	t.Helper()
	r := stats.NewRNG(seed)
	var seen [outCases]int
	for trial := 0; trial < 3000; trial++ {
		d := draw(r)
		if back, err := DecodeJSONL(bytes.NewReader(encode(t, d))); err != nil || !sameDump(d, back) {
			t.Fatalf("a drawn dump changed across encode → decode (err %v)\ndrawn:   %+v\ndecoded: %+v", err, d, back)
		}
		seen[decodeHostile(t, damage(t, r, d))]++
	}
	t.Logf("inputs by outcome: %v", seen)
	for out, k := range seen {
		if k < 30 {
			t.Errorf("the draw reached outcome %d only %d times", out, k)
		}
	}
}

// TestDecodeSurvivesHostileDumps is the property over flight-recorder
// flushes.
func TestDecodeSurvivesHostileDumps(t *testing.T) {
	surviveHostile(t, 31, drawDump)
}

// TestDecodeSurvivesHostileRunRecords is the property over run records,
// whose senses carry the vector stamps the lattice survey reads.
func TestDecodeSurvivesHostileRunRecords(t *testing.T) {
	surviveHostile(t, 29, drawRunRecord)
}

// FuzzDecodeJSONL is the same body under the native fuzzer. The checked-in
// corpus in testdata/fuzz/FuzzDecodeJSONL holds a valid dump with a
// metrics line, the same dump cut short, a header with a huge process
// count, an event of an unknown kind, one at an out-of-range process, a
// line of neither shape and a metrics block of empty histograms.
func FuzzDecodeJSONL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeHostile(t, data)
	})
}

// FuzzDecodeRunRecord is the same body seeded with run records. The
// checked-in corpus in testdata/fuzz/FuzzDecodeRunRecord holds them
// stamped and not, whole and cut short, a huge process count with no
// stamp or an empty one, and a stamp of the wrong length.
func FuzzDecodeRunRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeHostile(t, data)
	})
}
