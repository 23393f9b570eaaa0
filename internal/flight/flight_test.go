package flight

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"pervasive/internal/obs"
	"pervasive/internal/sim"
)

func TestNilRecorderNoops(t *testing.T) {
	var r *Recorder
	r.Record(Rec{Kind: Sense, Proc: 0})
	r.SetTimeBase("wall-us")
	r.SetTrigger(func(*Dump) { t.Fatal("trigger on nil recorder") })
	r.TriggerDump("x", 0)
	if r.Concurrent() {
		t.Fatal("nil recorder accessors must return zero values")
	}
	if r.Intern("attr") != 0 || r.AttrName(1) != "" {
		t.Fatal("nil recorder interning must be inert")
	}
	if r.Snapshot("x", 0) != nil {
		t.Fatal("nil recorder snapshot must be nil")
	}
}

func TestRingWrapKeepsLastK(t *testing.T) {
	r := New(2, 4)
	for i := 1; i <= 10; i++ {
		r.Record(Rec{Kind: Sense, Proc: 0, Seq: uint64(i), At: sim.Time(i)})
	}
	d := r.Snapshot("test", 10, 0)
	if len(d.Events) != 4 {
		t.Fatalf("got %d events, want ring capacity 4", len(d.Events))
	}
	for i, ev := range d.Events {
		if want := uint64(7 + i); ev.Seq != want {
			t.Fatalf("event %d: seq %d, want %d (last-K oldest-first)", i, ev.Seq, want)
		}
	}
}

func TestRecordDropsOutOfRangeProc(t *testing.T) {
	r := New(2, 4)
	r.Record(Rec{Kind: Sense, Proc: 7})
	r.Record(Rec{Kind: Sense, Proc: -1})
	if d := r.Snapshot("test", 0); len(d.Events) != 0 {
		t.Fatalf("out-of-range records must be dropped, got %d", len(d.Events))
	}
}

func TestInternRoundTrip(t *testing.T) {
	r := New(1, 4)
	a := r.Intern("temp")
	b := r.Intern("occupancy")
	if a == 0 || b == 0 || a == b {
		t.Fatalf("interned ids must be distinct and nonzero: %d %d", a, b)
	}
	if r.Intern("temp") != a {
		t.Fatal("re-interning must be stable")
	}
	if r.AttrName(a) != "temp" || r.AttrName(b) != "occupancy" {
		t.Fatal("AttrName must invert Intern")
	}
	if r.Intern("") != 0 || r.AttrName(0) != "" {
		t.Fatal("id 0 is reserved for no attribute")
	}
}

func TestSnapshotOrdersByTimeThenProc(t *testing.T) {
	r := New(3, 8)
	r.Record(Rec{Kind: Sense, Proc: 2, At: 5, Seq: 1})
	r.Record(Rec{Kind: Sense, Proc: 0, At: 5, Seq: 1})
	r.Record(Rec{Kind: Sense, Proc: 1, At: 3, Seq: 1})
	d := r.Snapshot("test", 5)
	got := make([]int, len(d.Events))
	for i, ev := range d.Events {
		got[i] = ev.Proc
	}
	if got[0] != 1 || got[1] != 0 || got[2] != 2 {
		t.Fatalf("order %v, want [1 0 2] (At, then Proc)", got)
	}
}

func TestSnapshotProcSubsetDedups(t *testing.T) {
	r := New(4, 4)
	for p := 0; p < 4; p++ {
		r.Record(Rec{Kind: Sense, Proc: int32(p), At: sim.Time(p)})
	}
	d := r.Snapshot("test", 4, 2, 0, 2, 9, -1)
	if len(d.Procs) != 2 || d.Procs[0] != 0 || d.Procs[1] != 2 {
		t.Fatalf("procs %v, want [0 2]", d.Procs)
	}
	if len(d.Events) != 2 {
		t.Fatalf("got %d events, want 2", len(d.Events))
	}
}

func TestTriggerDump(t *testing.T) {
	r := New(2, 4)
	r.Record(Rec{Kind: Detect, Proc: 1, At: 9})
	var got *Dump
	r.SetTrigger(func(d *Dump) { got = d })
	r.TriggerDump("detect", 9, 1)
	if got == nil || got.Trigger != "detect" || got.At != 9 || len(got.Events) != 1 {
		t.Fatalf("trigger sink got %+v", got)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	r := New(2, 8)
	r.SetTimeBase("virtual")
	attr := r.Intern("x")
	r.Record(Rec{Kind: Sense, Proc: 0, Peer: NoPeer, At: 1, Seq: 1, Attr: attr, Value: 2.5, Clock: 1})
	r.Record(Rec{Kind: Recv, Proc: 1, Peer: 0, At: 2, Seq: 1, Clock: 0, PeerClock: 1})
	d := r.Snapshot("signal", 2)
	d.Metrics = &obs.Snapshot{TimeBase: "virtual", Counters: []obs.CounterSnap{{Name: "c", Value: 3}}}

	var buf bytes.Buffer
	if err := d.EncodeJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.Bytes()[:bytes.IndexByte(buf.Bytes(), '\n')]
	if !IsDumpHeader(first) {
		t.Fatalf("header not recognized: %s", first)
	}
	if IsDumpHeader([]byte(`{"n":4}`)) {
		t.Fatal("trace header misidentified as dump")
	}

	back, err := DecodeJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Trigger != "signal" || back.TimeBase != "virtual" || back.N != 2 {
		t.Fatalf("header mismatch: %+v", back)
	}
	if len(back.Events) != 2 || back.Events[0].Attr != "x" || back.Events[0].Value != 2.5 {
		t.Fatalf("events mismatch: %+v", back.Events)
	}
	if back.Events[1].Peer != 0 || back.Events[1].PeerClock != 1 {
		t.Fatalf("recv event mismatch: %+v", back.Events[1])
	}
	if back.Metrics == nil || len(back.Metrics.Counters) != 1 {
		t.Fatalf("metrics trailer lost: %+v", back.Metrics)
	}
}

func TestDecodeRejectsBadDumps(t *testing.T) {
	cases := map[string]string{
		"bad version": `{"flight":{"version":99,"n":2,"procs":[0]}}`,
		"bad n":       `{"flight":{"version":1,"n":0,"procs":[]}}`,
		"bad kind": `{"flight":{"version":1,"n":2,"procs":[0]}}
{"kind":"warp","proc":0,"at":1,"peer":-1}`,
		"bad proc": `{"flight":{"version":1,"n":2,"procs":[0]}}
{"kind":"sense","proc":5,"at":1,"peer":-1}`,
	}
	for name, in := range cases {
		if _, err := DecodeJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: decode accepted invalid dump", name)
		}
	}
}

func TestConcurrentRecordAndSnapshot(t *testing.T) {
	r := NewConcurrent(4, 64)
	if !r.Concurrent() {
		t.Fatal("NewConcurrent must report concurrent mode")
	}
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 1; i <= 200; i++ {
				r.Record(Rec{Kind: Sense, Proc: int32(p), Seq: uint64(i), At: sim.Time(i)})
			}
		}(p)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = r.Snapshot("probe", sim.Time(i))
		}
	}()
	wg.Wait()
	<-done
	d := r.Snapshot("final", 200)
	if len(d.Events) != 4*64 {
		t.Fatalf("got %d events, want %d", len(d.Events), 4*64)
	}
}

func TestKindStringParseRoundTrip(t *testing.T) {
	for k := Sense; k <= Recover; k++ {
		if ParseKind(k.String()) != k {
			t.Fatalf("kind %d does not round-trip through %q", k, k.String())
		}
	}
	if ParseKind("none") != KindNone || ParseKind("bogus") != KindNone {
		t.Fatal("unknown kinds must parse to KindNone")
	}
	if Kind(200).String() != "invalid" {
		t.Fatal("out-of-range kind must stringify as invalid")
	}
}
