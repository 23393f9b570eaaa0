package clock

import (
	"math"
	"reflect"
	"testing"
)

func TestStampBatchRoundTrip(t *testing.T) {
	cases := [][]StampTriple{
		nil,
		{{Proc: 0, Val: 1, Sent: 1}},
		{{Proc: 0, Val: 7, Sent: 3}, {Proc: 1, Val: 0, Sent: 0}, {Proc: 5, Val: 12, Sent: 9}},
		{{Proc: 3, Val: math.MaxUint64, Sent: math.MaxUint64}, {Proc: 100000, Val: 1, Sent: 2}},
	}
	for i, ts := range cases {
		b := AppendStampBatch(nil, ts)
		// Concatenate a second batch to prove self-delimiting decode.
		tail := []StampTriple{{Proc: 2, Val: 4, Sent: 4}}
		b = AppendStampBatch(b, tail)
		got, n, err := DecodeStampBatch(b)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if len(ts) == 0 {
			if len(got) != 0 {
				t.Fatalf("case %d: got %v, want empty", i, got)
			}
		} else if !reflect.DeepEqual(got, ts) {
			t.Fatalf("case %d: got %v, want %v", i, got, ts)
		}
		got2, n2, err := DecodeStampBatch(b[n:])
		if err != nil || !reflect.DeepEqual(got2, tail) || n+n2 != len(b) {
			t.Fatalf("case %d: second batch got %v (n=%d+%d of %d), err=%v", i, got2, n, n2, len(b), err)
		}
	}
}

func TestStampBatchContiguousRegionIsCompact(t *testing.T) {
	// A contiguous region with small values — the common aggregator sync —
	// should cost ~3 bytes per process, far below the 18-byte flat record.
	ts := make([]StampTriple, 512)
	for i := range ts {
		ts[i] = StampTriple{Proc: 1024 + i, Val: uint64(i % 90), Sent: uint64(i % 120)}
	}
	n := len(AppendStampBatch(nil, ts))
	if n > 4*len(ts) {
		t.Fatalf("contiguous batch cost %d bytes for %d triples (%.1f/triple), want <= 4/triple", n, len(ts), float64(n)/float64(len(ts)))
	}
}

func TestStampBatchRejectsUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unsorted triples")
		}
	}()
	AppendStampBatch(nil, []StampTriple{{Proc: 5}, {Proc: 5}})
}

func TestStampBatchDecodeErrors(t *testing.T) {
	if _, _, err := DecodeStampBatch(nil); err == nil {
		t.Error("nil buffer: want error")
	}
	// Truncated after count.
	b := AppendStampBatch(nil, []StampTriple{{Proc: 1, Val: 300, Sent: 300}})
	for cut := 1; cut < len(b); cut++ {
		if _, _, err := DecodeStampBatch(b[:cut]); err == nil {
			t.Errorf("truncated at %d of %d: want error", cut, len(b))
		}
	}
	// A zero proc-delta is invalid (procs strictly increase).
	bad := []byte{1, 0}
	if _, _, err := DecodeStampBatch(bad); err == nil {
		t.Error("zero proc delta: want error")
	}
}
