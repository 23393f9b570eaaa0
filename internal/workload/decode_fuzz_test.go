package workload

import (
	"bytes"
	"encoding/binary"
	"maps"
	"math"
	"runtime"
	"strings"
	"testing"

	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// What Decode made of one input. The tallies prove the fixed-seed draw
// reaches every way a trace file can be wrong, and the one way it is right.
const (
	outNotTrace  = iota // no "PVWL" magic
	outVersion          // a version this build does not read
	outTruncated        // the bytes end inside a field
	outCount            // a count the remaining bytes cannot hold
	outRecord           // a complete record naming no attr, a negative object or a time past int64
	outTrailing         // bytes after the last record
	outDecoded          // a trace
	outCases
)

// decodeOutcome classifies a Decode error by the check that raised it.
func decodeOutcome(t *testing.T, err error) int {
	t.Helper()
	for out, marks := range [outDecoded][]string{
		outNotTrace:  {"not a trace"},
		outVersion:   {"trace version"},
		outTruncated: {"truncated"},
		outCount:     {"exceeds the", "declares"},
		outRecord:    {"references attr", "negative object", "overflows virtual time"},
		outTrailing:  {"trailing bytes"},
	} {
		for _, m := range marks {
			if strings.Contains(err.Error(), m) {
				return out
			}
		}
	}
	t.Fatalf("Decode returned an error no check owns: %v", err)
	return -1
}

// sameTrace is bit-for-bit equality: NaN payloads and the sign of zero count.
func sameTrace(a, b *Trace) bool {
	if a.Horizon != b.Horizon || !maps.Equal(a.Meta, b.Meta) || len(a.Events) != len(b.Events) {
		return false
	}
	for i, x := range a.Events {
		y := b.Events[i]
		if x.At != y.At || x.Obj != y.Obj || x.Attr != y.Attr || math.Float64bits(x.Val) != math.Float64bits(y.Val) {
			return false
		}
	}
	return true
}

// decodeHostile feeds arbitrary bytes to Decode: it must return an error or
// a trace, never panic, and a trace must survive Encode → Decode unchanged,
// with Encode a fixed point from then on (the input itself may spell the
// same trace differently: overlong varints, an unsorted attr table).
func decodeHostile(t *testing.T, data []byte) int {
	t.Helper()
	tr, err := Decode(data)
	if err != nil {
		if tr != nil {
			t.Fatalf("Decode returned both a trace and %v", err)
		}
		return decodeOutcome(t, err)
	}
	enc := tr.Encode()
	back, err := Decode(enc)
	if err != nil {
		t.Fatalf("re-encoded trace does not decode: %v\ninput % x\nre-encoded % x", err, data, enc)
	}
	if !sameTrace(tr, back) {
		t.Fatalf("trace changed across Encode → Decode\nfirst:  %+v\nsecond: %+v", tr, back)
	}
	if again := back.Encode(); !bytes.Equal(again, enc) {
		t.Fatalf("Encode is not a fixed point\nfirst:  % x\nsecond: % x", enc, again)
	}
	return outDecoded
}

// decodeAllocBytes is what one Decode of data allocates.
func decodeAllocBytes(data []byte) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Decode(data)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// Headers that are valid up to a count. The first two crashed `pervasim
// -replay` and `tracedump` before counts were bounded by the bytes behind
// them; the third asked the runtime for ≈ 400 GB; the fourth is a count the
// format allows and a ten-byte file cannot back (≈ 1 MB for nothing).
const (
	maxUvarint        = "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01" // 2⁶⁴−1
	hostileAttrCount  = "PVWL\x01\x0a\x00" + maxUvarint            // 17 bytes: makeslice: len out of range
	hostileEventCount = "PVWL\x01\x0a\x00\x00" + maxUvarint        // 18 bytes: makeslice: cap out of range
	hostileEventsHuge = "PVWL\x01\x0a\x00\x00\x80\x80\x80\x80\x20" // events = 2³³
	hostileAttrsFit   = "PVWL\x01\x0a\x00\xe0\xd4\x03"             // attrs = 60000: inside the format's 65535, not inside 10 bytes
)

// TestDecodeRejectsHostileCounts pins the crashers as errors.
func TestDecodeRejectsHostileCounts(t *testing.T) {
	for name, in := range map[string]string{
		"attr count 2^64-1": hostileAttrCount, "event count 2^64-1": hostileEventCount, "event count 2^33": hostileEventsHuge,
		"attr count 60000": hostileAttrsFit,
		// one more attr than Encode accepts, every one of them present
		"attr count 65536": "PVWL\x01\x0a\x00\x80\x80\x04" + strings.Repeat("\x00", 1<<16),
	} {
		data := []byte(in)
		if got := decodeHostile(t, data); got != outCount {
			t.Errorf("%s (%d bytes): outcome %d, want the count check (%d)", name, len(data), got, outCount)
		}
		if got := decodeAllocBytes(data); got > 4096 {
			t.Errorf("%s: Decode allocated %d bytes for a %d-byte input", name, got, len(data))
		}
	}
}

// drawTrace draws a small valid trace: a few attrs, integral and raw
// values (NaN and −0 among them), repeated timestamps, objects in any order.
func drawTrace(r *stats.RNG) *Trace {
	tr := &Trace{Horizon: sim.Time(r.Intn(1 << 20)), Meta: map[string]string{}}
	for k := r.Intn(3); k > 0; k-- {
		tr.Meta[string(rune('a'+r.Intn(4)))] = strings.Repeat("v", r.Intn(5))
	}
	attrs := []string{"p", "q", "", "occupancy"}
	var at sim.Time
	for k := r.Intn(40); k > 0; k-- {
		at += sim.Time(r.Intn(3) * r.Intn(1000))
		ev := Event{At: at, Obj: r.Intn(12), Attr: attrs[r.Intn(len(attrs))], Val: float64(r.Intn(9) - 4)}
		switch r.Intn(8) {
		case 0:
			ev.Val = r.Float64()
		case 1:
			ev.Val = []float64{math.NaN(), math.Copysign(0, -1), math.Inf(1), 1 << 60}[r.Intn(4)]
		}
		tr.Events = append(tr.Events, ev)
	}
	return tr
}

// countOffsets walks a valid encoding to where its attr count and its event
// count start.
func countOffsets(t *testing.T, enc []byte) (attrs, events int) {
	t.Helper()
	d := &decoder{b: enc, off: len(TraceMagic)}
	must := func(_ any, err error) {
		if err != nil {
			t.Fatalf("walking a valid trace: %v", err)
		}
	}
	must(d.uvarint()) // version
	must(d.uvarint()) // horizon
	nm, err := d.uvarint()
	must(nm, err)
	for ; nm > 0; nm-- {
		must(d.str())
		must(d.str())
	}
	attrs = d.off
	na, err := d.uvarint()
	must(na, err)
	for ; na > 0; na-- {
		must(d.str())
	}
	return attrs, d.off
}

// mutate turns a valid encoding into one of the shapes a damaged or
// hostile file takes.
func mutate(t *testing.T, r *stats.RNG, enc []byte) []byte {
	out := bytes.Clone(enc)
	huge := func(off int) []byte { // the varint at off replaced by a 5- to 10-byte one
		_, n := binary.Uvarint(out[off:])
		big := appendUvarint(nil, uint64(1)<<(32+r.Intn(32)))
		return append(append(bytes.Clone(out[:off]), big...), out[off+n:]...)
	}
	attrOff, eventOff := countOffsets(t, enc)
	switch r.Intn(10) {
	case 0: // not a trace at all
		for i := range out {
			out[i] = byte(r.Intn(256))
		}
	case 1:
		out[len(TraceMagic)] = byte(2 + r.Intn(100))
	case 2:
		out = out[:r.Intn(len(out))]
	case 3:
		out = huge(attrOff)
	case 4:
		out = huge(eventOff)
	case 5:
		out = append(out, byte(r.Intn(256)))
	case 6: // one record that cannot be: header, attrs ["a"], one event
		rec := []byte("PVWL\x01\x0a\x00\x01\x01a\x01")
		switch r.Intn(3) {
		case 0:
			rec = append(appendUvarint(rec, math.MaxUint64), 0, 0, 0) // dt past int64
		case 1:
			rec = append(rec, 0, byte(zigzag(-1-int64(r.Intn(60)))), 0, 0) // object below zero
		default:
			rec = append(rec, 0, 0, byte(1+r.Intn(60))<<1, 0) // attr 1.. of 1
		}
		out = rec
	case 7: // any one byte
		out[r.Intn(len(out))] ^= byte(1 + r.Intn(255))
	}
	return out // cases 8, 9: the valid encoding itself
}

// TestDecodeSurvivesHostileTraces is the property at a fixed seed: every
// outcome is reached, nothing panics, every trace that decodes round-trips,
// and no input makes Decode allocate more than a constant times its length.
func TestDecodeSurvivesHostileTraces(t *testing.T) {
	r := stats.NewRNG(23)
	var seen [outCases]int
	worst := 0.0
	for trial := 0; trial < 3000; trial++ {
		tr := drawTrace(r)
		enc := tr.Encode()
		if back, err := Decode(enc); err != nil || !sameTrace(tr, back) {
			t.Fatalf("a drawn trace changed across Encode → Decode (err %v)\ndrawn:   %+v\ndecoded: %+v", err, tr, back)
		}
		data := mutate(t, r, enc)
		got, limit := decodeAllocBytes(data), uint64(64*len(data)+4096)
		if got > limit {
			t.Fatalf("Decode allocated %d bytes for a %d-byte input (limit %d): % x", got, len(data), limit, data)
		}
		worst = max(worst, float64(got)/float64(limit))
		seen[decodeHostile(t, data)]++
	}
	t.Logf("inputs by outcome: %v; worst allocation %.0f%% of 64 × len + 4096", seen, 100*worst)
	for out, k := range seen {
		if k < 30 {
			t.Errorf("the draw reached outcome %d only %d times", out, k)
		}
	}
}

// FuzzWorkloadDecode is the same body under the native fuzzer. The
// checked-in corpus in testdata/fuzz/FuzzWorkloadDecode holds the hostile
// headers above, a raw −0 (which an integer delta cannot carry), a valid
// trace and the same trace cut short.
func FuzzWorkloadDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeHostile(t, data)
	})
}
