package trace

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pervasive/internal/clock"
	"pervasive/internal/obs"
	"pervasive/internal/sim"
)

func sampleTrace() *Trace {
	tr := New(3)
	tr.Append(Record{Proc: 0, Type: Sense, At: 5, Attr: "temp", Value: 31.5,
		Lamport: 3, Vector: clock.Vector{3, 0, 1}, Note: "hot"})
	tr.Append(Record{Proc: 1, Type: Send, At: 7, Peer: 0})
	tr.Append(Record{Proc: 0, Type: Receive, At: 9, Peer: 1})
	tr.Append(Record{Proc: 2, Type: Compute, At: 11})
	return tr
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := sampleTrace()
	reg := obs.NewRegistry()
	reg.Counter("net.sent").Add(4)
	snap := reg.Snapshot()
	tr.Metrics = &snap

	var buf bytes.Buffer
	if err := tr.EncodeJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	// One line per record, plus header and metrics trailer.
	if lines := strings.Count(buf.String(), "\n"); lines != tr.Len()+2 {
		t.Fatalf("line count %d want %d\n%s", lines, tr.Len()+2, buf.String())
	}

	back, err := DecodeJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != tr.N || !reflect.DeepEqual(back.Records, tr.Records) {
		t.Fatalf("records mismatch:\n%+v\n%+v", back.Records, tr.Records)
	}
	if back.Metrics == nil || len(back.Metrics.Counters) != 1 ||
		back.Metrics.Counters[0].Name != "net.sent" || back.Metrics.Counters[0].Value != 4 {
		t.Fatalf("metrics mismatch: %+v", back.Metrics)
	}
}

func TestJSONLNoMetrics(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.EncodeJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Metrics != nil {
		t.Fatalf("phantom metrics %+v", back.Metrics)
	}
	if !reflect.DeepEqual(back.Records, tr.Records) {
		t.Fatal("records mismatch")
	}
}

func TestJSONLStreamingFunc(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.EncodeJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var got []Record
	n, metrics, err := DecodeJSONLFunc(&buf, func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil || n != 3 || metrics != nil {
		t.Fatalf("n=%d metrics=%v err=%v", n, metrics, err)
	}
	if !reflect.DeepEqual(got, tr.Records) {
		t.Fatal("streamed records mismatch")
	}

	// Callback errors abort the stream.
	buf.Reset()
	if err := tr.EncodeJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("stop")
	calls := 0
	_, _, err = DecodeJSONLFunc(&buf, func(Record) error {
		calls++
		return sentinel
	})
	if !errors.Is(err, sentinel) || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestJSONLDecodeValidation(t *testing.T) {
	cases := []string{
		``,
		`{"n":0}`,
		"{\"n\":2}\n{\"proc\":5,\"type\":\"n\",\"at\":1}",
		"{\"n\":2}\n{\"proc\":0,\"type\":\"bogus\",\"at\":1}",
		"{\"n\":2}\n{\"unrelated\":true}",
		"{\"n\":2}\nnot json",
	}
	for _, src := range cases {
		if _, err := DecodeJSONL(strings.NewReader(src)); err == nil {
			t.Errorf("DecodeJSONL(%q) succeeded", src)
		}
	}
}

func TestIndexMaintainedByAppend(t *testing.T) {
	tr := sampleTrace()
	// Build the index, then append more and re-query.
	if got := len(tr.ByProcess(0)); got != 2 {
		t.Fatalf("p0 %d", got)
	}
	tr.Append(Record{Proc: 0, Type: Actuate, At: 20})
	tr.Append(Record{Proc: 2, Type: Sense, At: 21, Attr: "x"})
	p0 := tr.ByProcess(0)
	if len(p0) != 3 || p0[2].Type != Actuate {
		t.Fatalf("index stale after append: %v", p0)
	}
	c := tr.Counts()
	if c[Sense] != 2 || c[Actuate] != 1 {
		t.Fatalf("counts stale after append: %v", c)
	}
	// Out-of-range and empty queries return nil.
	if tr.ByProcess(-1) != nil || tr.ByProcess(3) != nil {
		t.Fatal("out-of-range not nil")
	}
	// Mutating the returned map must not corrupt the index.
	c[Sense] = 99
	if tr.Counts()[Sense] != 2 {
		t.Fatal("Counts aliases internal state")
	}
}

func TestIndexInvalidatedBySort(t *testing.T) {
	tr := New(2)
	tr.Append(Record{Proc: 1, Type: Sense, At: 30})
	tr.Append(Record{Proc: 0, Type: Sense, At: 10})
	if got := tr.ByProcess(1); len(got) != 1 || got[0].At != 30 {
		t.Fatalf("pre-sort %v", got)
	}
	// A caller that reorders Records itself must drop the index.
	slices.SortFunc(tr.Records, func(a, b Record) int { return int(a.At - b.At) })
	tr.InvalidateIndex()
	if got := tr.ByProcess(0); len(got) != 1 || got[0].At != 10 {
		t.Fatalf("post-sort %v", got)
	}
	// Direct mutation + InvalidateIndex.
	tr.Records = tr.Records[:1]
	tr.InvalidateIndex()
	if got := tr.ByProcess(1); got != nil {
		t.Fatalf("after truncation %v", got)
	}
	if tr.Counts()[Sense] != 1 {
		t.Fatalf("counts after truncation %v", tr.Counts())
	}
}

func BenchmarkByProcessIndexed(b *testing.B) {
	tr := New(8)
	for i := 0; i < 100_000; i++ {
		tr.Append(Record{Proc: i % 8, Type: Compute, At: sim.Time(i)})
	}
	tr.ByProcess(0) // build index outside the loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := tr.ByProcess(i % 8); len(got) != 12_500 {
			b.Fatal(len(got))
		}
	}
}
