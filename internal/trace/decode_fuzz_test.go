package trace

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"pervasive/internal/clock"
	"pervasive/internal/obs"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// What a decoder made of one input. The tallies prove the fixed-seed draw
// reaches every way a trace file can be wrong, and the one way it is right.
const (
	outSyntax  = iota // not a trace's JSON: bad syntax, a wrong field type, a JSONL line of neither shape
	outCount          // a process count below 1
	outProc           // a record naming a process outside 0..N−1
	outType           // a record of no event type
	outVector         // a record whose stamp has neither 0 nor N entries
	outDecoded        // a trace
	outCases
)

// decodeOutcome classifies a decode error by the check that raised it.
func decodeOutcome(t *testing.T, err error) int {
	t.Helper()
	for out, marks := range [outDecoded][]string{
		outSyntax: {"decode", "neither record nor metrics"},
		outCount:  {"invalid process count"},
		outProc:   {"out of range"},
		outType:   {"invalid type"},
		outVector: {"has a vector of"},
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

// decode runs the JSON or the JSONL decoder.
func decode(data []byte, jsonl bool) (*Trace, error) {
	if jsonl {
		return DecodeJSONL(bytes.NewReader(data))
	}
	return DecodeJSON(bytes.NewReader(data))
}

// decodeAllocBytes is what one decode of data allocates: the least of three
// TotalAlloc deltas. The delta is process-wide, so whatever the runtime
// allocates meanwhile lands in it too; the decode is deterministic, so that
// noise only adds and the minimum is the decode's own cost.
func decodeAllocBytes(data []byte, jsonl bool) uint64 {
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if tr, err := decode(data, jsonl); err == nil {
			tr.Counts()
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// sameTrace compares what survives an encoding: the process count and the
// records.
func sameTrace(a, b *Trace) bool {
	return a.N == b.N && slices.EqualFunc(a.Records, b.Records, func(x, y Record) bool {
		return reflect.DeepEqual(x, y)
	})
}

// decodeHostile feeds arbitrary bytes to one decoder. It must return an
// error or a trace, never panic, and allocate no more than 128 bytes per
// input byte plus 4096 — the JSON decoder's own buffer and a record's
// 112 bytes per dozen input bytes, with slice growth, sit well inside it.
// On a trace, every stamp must be nil or hold N entries — what lets the
// lattice analysis size by N once it has seen a stamp — Counts and
// ByProcess must account for every record, and the trace must survive
// EncodeJSON → DecodeJSON, with EncodeJSON a fixed point from then on (the
// input may spell the trace differently: JSONL, spacing, an empty stamp).
func decodeHostile(t *testing.T, data []byte, jsonl bool) int {
	t.Helper()
	if got, limit := decodeAllocBytes(data, jsonl), uint64(128*len(data)+4096); got > limit {
		t.Fatalf("decode (jsonl %v) allocated %d bytes for a %d-byte input (limit %d): %.200q", jsonl, got, len(data), limit, data)
	}
	tr, err := decode(data, jsonl)
	if err != nil {
		if tr != nil {
			t.Fatalf("decode returned both a trace and %v", err)
		}
		return decodeOutcome(t, err)
	}
	for i, r := range tr.Records {
		if r.Vector != nil && len(r.Vector) != tr.N {
			t.Fatalf("record %d decoded with a %d-entry stamp in a trace of %d processes: %.200q", i, len(r.Vector), tr.N, data)
		}
	}
	total := 0
	for _, k := range tr.Counts() {
		total += k
	}
	procs := map[int]bool{-1: true, tr.N: true}
	for _, r := range tr.Records {
		procs[r.Proc] = true
	}
	listed := 0
	for p := range procs {
		listed += len(tr.ByProcess(p))
	}
	if total != tr.Len() || listed != tr.Len() {
		t.Fatalf("%d records, %d by type, %d by process", tr.Len(), total, listed)
	}
	var enc bytes.Buffer
	if err := tr.EncodeJSON(&enc); err != nil {
		t.Fatalf("a decoded trace does not encode: %v", err)
	}
	back, err := DecodeJSON(bytes.NewReader(enc.Bytes()))
	if err != nil {
		t.Fatalf("re-encoded trace does not decode: %v\ninput %q\nre-encoded %s", err, data, enc.Bytes())
	}
	if !sameTrace(tr, back) {
		t.Fatalf("trace changed across EncodeJSON → DecodeJSON\nfirst:  %+v\nsecond: %+v", tr, back)
	}
	var again bytes.Buffer
	if err := back.EncodeJSON(&again); err != nil || !bytes.Equal(again.Bytes(), enc.Bytes()) {
		t.Fatalf("EncodeJSON is not a fixed point (%v)\nfirst:  %s\nsecond: %s", err, enc.Bytes(), again.Bytes())
	}
	return outDecoded
}

// drawTrace draws a small valid trace: every event type, stamps of N
// entries on some records, now and then a metrics snapshot.
func drawTrace(r *stats.RNG) *Trace {
	n := 1 + r.Intn(5)
	tr := New(n)
	types := []Type{Compute, Sense, Actuate, Send, Receive}
	for k := r.Intn(10); k > 0; k-- {
		rec := Record{Proc: r.Intn(n), Type: types[r.Intn(len(types))], At: sim.Time(r.Intn(1 << 20)),
			Lamport: uint64(r.Intn(3)), Peer: r.Intn(n)}
		if r.Intn(2) == 0 {
			rec.Vector = make(clock.Vector, n)
			for i := range rec.Vector {
				rec.Vector[i] = uint64(r.Intn(4))
			}
		}
		if r.Intn(2) == 0 {
			rec.Attr, rec.Value = "x", float64(r.Intn(9)-4)/2
		}
		if r.Intn(4) == 0 {
			rec.Note = "hot"
		}
		tr.Append(rec)
	}
	if r.Intn(4) == 0 {
		reg := obs.NewRegistry()
		reg.Counter("net.sent").Add(int64(r.Intn(100)))
		snap := reg.Snapshot()
		tr.Metrics = &snap
	}
	return tr
}

// encode writes tr in the form the draw picked.
func encode(t *testing.T, tr *Trace, jsonl bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := tr.EncodeJSON
	if jsonl {
		enc = tr.EncodeJSONL
	}
	if err := enc(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// damage turns a valid trace into one of the shapes a damaged or hostile
// file takes, in the encoding the draw picked.
func damage(t *testing.T, r *stats.RNG, tr *Trace, jsonl bool) []byte {
	pick := func() *Record { // a record to spoil, appended if there is none
		if tr.Len() == 0 {
			tr.Records = append(tr.Records, Record{Type: Compute})
		}
		return &tr.Records[r.Intn(tr.Len())]
	}
	switch r.Intn(10) {
	case 0: // not a trace at all
		out := make([]byte, 1+r.Intn(40))
		for i := range out {
			out[i] = byte(r.Intn(256))
		}
		return out
	case 1:
		out := encode(t, tr, jsonl)
		return out[:r.Intn(len(out))]
	case 2:
		tr.N = -r.Intn(3)
	case 3:
		rec := pick()
		rec.Proc = []int{-1 - r.Intn(3), tr.N + r.Intn(3)}[r.Intn(2)]
	case 4:
		pick().Type = Type([]string{"", "q", "sense"}[r.Intn(3)])
	case 5:
		rec := pick()
		rec.Vector = make(clock.Vector, tr.N+1+r.Intn(4))
	case 6: // the header that once sized the index: any count, no stamp to bound it
		tr.N = []int{1e9, 1<<62 - 1}[r.Intn(2)]
		for i := range tr.Records {
			tr.Records[i].Vector = nil
		}
	case 7: // any one byte
		out := encode(t, tr, jsonl)
		out[r.Intn(len(out))] ^= byte(1 + r.Intn(255))
		return out
	}
	return encode(t, tr, jsonl) // cases 8, 9: the valid encoding itself
}

// TestDecodeRejectsEmptyElementsEarly pins the inputs the allocation bound
// is tightest on: long lists of empty objects, three bytes each. Decoded
// whole and checked afterwards, an empty record costs its 112 bytes and an
// empty histogram 96, times about five for the list's growth — past 128 per
// input byte. Checked as they decode, the first one ends the decode.
func TestDecodeRejectsEmptyElementsEarly(t *testing.T) {
	empties := strings.TrimSuffix(strings.Repeat("{},", 10000), ",")
	for _, in := range []string{
		`{"n":1,"records":[` + empties + `]}`,
		`{"n":1,"metrics":{"histograms":[` + empties + `]}}`,
		"{\"n\":1}\n{\"metrics\":{\"histograms\":[" + empties + "]}}\n",
	} {
		jsonl := strings.Contains(in, "\n")
		if got := decodeHostile(t, []byte(in), jsonl); got != outSyntax && got != outType {
			t.Errorf("%.40s…: outcome %d, want a rejection", in, got)
		}
	}
}

// TestDecodeSurvivesHostileTraces is the property at a fixed seed, over both
// encodings: every outcome is reached, nothing panics or allocates past the
// bound, and every trace that decodes round-trips.
func TestDecodeSurvivesHostileTraces(t *testing.T) {
	r := stats.NewRNG(29)
	var seen [outCases]int
	for trial := 0; trial < 3000; trial++ {
		tr, jsonl := drawTrace(r), r.Intn(2) == 0
		if back, err := decode(encode(t, tr, jsonl), jsonl); err != nil || !sameTrace(tr, back) {
			t.Fatalf("a drawn trace changed across encode → decode (jsonl %v, err %v)\ndrawn:   %+v\ndecoded: %+v", jsonl, err, tr, back)
		}
		data := damage(t, r, tr, jsonl)
		seen[decodeHostile(t, data, jsonl)]++
		decodeHostile(t, data, !jsonl) // the other decoder on the same bytes
	}
	t.Logf("inputs by outcome: %v", seen)
	for out, k := range seen {
		if k < 30 {
			t.Errorf("the draw reached outcome %d only %d times", out, k)
		}
	}
}

// FuzzTraceDecode is the same body under the native fuzzer, each input fed
// to both decoders. The checked-in corpus in testdata/fuzz/FuzzTraceDecode
// holds the header that made tracedump panic in makeslice, the same header
// with an empty stamp (JSON and JSONL), a stamp longer than its trace's
// process count, a valid trace, and each of them cut short.
func FuzzTraceDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeHostile(t, data, false)
		decodeHostile(t, data, true)
	})
}
