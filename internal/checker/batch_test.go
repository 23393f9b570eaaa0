package checker

import (
	"reflect"
	"testing"

	"pervasive/internal/clock"
)

func TestBatchWireRoundTrip(t *testing.T) {
	b := Batch{
		Region: 3, Epoch: 2, At: 12345,
		Triples: []clock.StampTriple{
			{Proc: 10, Val: 7, Sent: 7},
			{Proc: 11, Val: 300, Sent: 12},
			{Proc: 19, Val: 1, Sent: 1},
		},
		Entries: []BatchEntry{
			{Proc: 10, Epoch: 0, Var: "p", Value: 1},
			{Proc: 19, Epoch: 4, Var: "occupancy", Value: -2.5},
		},
	}
	wire := b.AppendWire(nil)
	var got Batch
	n, err := got.DecodeWire(wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n != len(wire) {
		t.Fatalf("consumed %d of %d bytes", n, len(wire))
	}
	if !reflect.DeepEqual(got, b) {
		t.Fatalf("round trip:\nwant %+v\ngot  %+v", b, got)
	}
	// Concatenated batches decode independently.
	wire2 := b.AppendWire(wire)
	var first, got2 Batch
	n1, _ := first.DecodeWire(wire2)
	n2, err := got2.DecodeWire(wire2[n1:])
	if err != nil || n1+n2 != len(wire2) || !reflect.DeepEqual(got2, b) {
		t.Fatalf("concatenated decode failed: n=%d+%d of %d err=%v", n1, n2, len(wire2), err)
	}
}

func TestBatchWireEmpty(t *testing.T) {
	b := Batch{Region: 0, Epoch: 0, At: 0}
	wire := b.AppendWire(nil)
	var got Batch
	n, err := got.DecodeWire(wire)
	if err != nil || n != len(wire) {
		t.Fatalf("empty batch decode: n=%d/%d err=%v", n, len(wire), err)
	}
	if len(got.Triples) != 0 || len(got.Entries) != 0 {
		t.Fatalf("empty batch grew content: %+v", got)
	}
}

func TestBatchWireTruncationErrors(t *testing.T) {
	b := Batch{
		Region: 1, Epoch: 0, At: 99,
		Triples: []clock.StampTriple{{Proc: 0, Val: 1, Sent: 1}},
		Entries: []BatchEntry{{Proc: 0, Var: "p", Value: 1}},
	}
	wire := b.AppendWire(nil)
	for cut := 0; cut < len(wire); cut++ {
		if _, err := new(Batch).DecodeWire(wire[:cut]); err == nil {
			t.Errorf("truncation at %d of %d decoded without error", cut, len(wire))
		}
	}
}

func TestBatchWireRejectsUnsortedEntries(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unsorted entries")
		}
	}()
	b := Batch{Entries: []BatchEntry{{Proc: 5, Var: "p"}, {Proc: 5, Var: "q"}}}
	b.AppendWire(nil)
}
