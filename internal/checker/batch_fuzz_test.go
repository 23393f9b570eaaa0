package checker

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"pervasive/internal/clock"
	"pervasive/internal/sim"
	"pervasive/internal/stats"
)

// What DecodeWire made of one input. The tallies prove the fixed-seed
// draw reaches every check in DecodeWire and in clock.AppendDecodeStampBatch
// under it.
const (
	outVarint    = iota // the bytes end (or a varint runs past 64 bits) inside a field
	outCount            // a triple or entry count the remaining bytes cannot hold
	outDelta            // a proc gap of zero, or one that leaves int
	outTruncated        // an entry whose name and value the remaining bytes cannot hold
	outDecoded          // a batch
	outCases
)

// batchOutcome classifies a decode error by the check that raised it.
func batchOutcome(t *testing.T, err error) int {
	t.Helper()
	for out, marks := range [outDecoded][]string{
		outVarint:    {"varint", "bad val", "bad sent"},
		outCount:     {"exceeds the"},
		outDelta:     {"proc delta"},
		outTruncated: {"truncated entry"},
	} {
		for _, m := range marks {
			if strings.Contains(err.Error(), m) {
				return out
			}
		}
	}
	t.Fatalf("DecodeWire returned an error no check owns: %v", err)
	return -1
}

// sameBatch is bit-for-bit equality (a NaN value equals itself).
func sameBatch(a, b Batch) bool {
	return a.Region == b.Region && a.Epoch == b.Epoch && a.At == b.At &&
		slices.Equal(a.Triples, b.Triples) &&
		slices.EqualFunc(a.Entries, b.Entries, func(x, y BatchEntry) bool {
			return x.Proc == y.Proc && x.Epoch == y.Epoch && x.Var == y.Var &&
				math.Float64bits(x.Value) == math.Float64bits(y.Value)
		})
}

// batchHostile feeds arbitrary bytes to both batch decoders: each must
// return an error or a value, never panic, and a value must survive
// encode → decode unchanged, consuming exactly what was encoded.
func batchHostile(t *testing.T, data []byte) int {
	t.Helper()
	if ts, n, err := clock.AppendDecodeStampBatch(nil, data); err == nil {
		wire := clock.AppendStampBatch(nil, ts)
		back, m, err := clock.AppendDecodeStampBatch(nil, wire)
		if err != nil || m != len(wire) || !slices.Equal(back, ts) || n > len(data) {
			t.Fatalf("stamp batch changed across encode → decode (err %v, %d of %d bytes)\nfirst:  %v\nsecond: %v", err, m, len(wire), ts, back)
		}
	}
	var b Batch
	n, err := b.DecodeWire(data)
	if err != nil {
		return batchOutcome(t, err)
	}
	if n > len(data) {
		t.Fatalf("DecodeWire consumed %d of %d bytes", n, len(data))
	}
	wire := b.AppendWire(nil)
	var back Batch
	m, err := back.DecodeWire(wire)
	if err != nil || m != len(wire) {
		t.Fatalf("re-encoded batch does not decode: %v (%d of %d bytes)\ninput % x\nre-encoded % x", err, m, len(wire), data, wire)
	}
	if !sameBatch(b, back) {
		t.Fatalf("batch changed across encode → decode\nfirst:  %+v\nsecond: %+v", b, back)
	}
	if again := back.AppendWire(nil); !bytes.Equal(again, wire) {
		t.Fatalf("AppendWire is not a fixed point\nfirst:  % x\nsecond: % x", wire, again)
	}
	reused := longBatch()
	if m, err := reused.DecodeWire(data); err != nil || m != n || !sameBatch(b, reused) {
		t.Fatalf("decoding into a used batch differs from a fresh decode (err %v, %d of %d bytes)\nfresh:  %+v\nreused: %+v", err, m, n, b, reused)
	}
	return outDecoded
}

// longBatch is what batchHostile decodes each input into a second time:
// a batch longer than the checked-in seeds, so a decode that keeps a stale
// triple or entry shows, with names at its first slots that the seeds'
// entries share ("p" at slot 0) and do not, so a stale name shows too.
func longBatch() Batch {
	b := Batch{Region: 9, Epoch: 5, At: 777}
	for p := range 24 {
		b.Triples = append(b.Triples, clock.StampTriple{Proc: p, Val: uint64(p + 100), Sent: 7})
		b.Entries = append(b.Entries, BatchEntry{Proc: p, Epoch: 1, Var: []string{"p", "occupancy", "q", ""}[p%4], Value: float64(p) + 0.5})
	}
	return b
}

// batchAllocBytes is what one DecodeWire of data allocates: the least of three
// TotalAlloc deltas. The delta is process-wide, so whatever the runtime
// allocates meanwhile lands in it too; the decode is deterministic, so that
// noise only adds and the minimum is the decode's own cost.
func batchAllocBytes(data []byte) uint64 {
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var b Batch
		b.DecodeWire(data)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// The two inputs that crashed DecodeWire before it bounded what it read:
// a triple count no slice can have, and a name length that is negative as
// an int and so passed a truncation check done in int.
const (
	hostileTripleCount = "\x00\x00\x00" + "\xff\xff\xff\xff\xff\xff\xff\xff\x7f" // 12 bytes: makeslice: cap out of range
	hostileNameLength  = "\x00\x00\x00\x00\x01\x01\x00" +                        // one entry, proc 0, epoch 0,
		"\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01" + // name length 1<<63,
		"0123456789abcdef" // 33 bytes: slice bounds out of range [:-9223372036854775791]
)

// TestDecodeBatchRejectsHostileLengths pins the crashers as errors.
func TestDecodeBatchRejectsHostileLengths(t *testing.T) {
	for in, want := range map[string]int{hostileTripleCount: outCount, hostileNameLength: outTruncated} {
		if got := batchHostile(t, []byte(in)); got != want {
			t.Errorf("% x: outcome %d, want %d", in, got, want)
		}
		if got := batchAllocBytes([]byte(in)); got > 4096 {
			t.Errorf("% x: DecodeWire allocated %d bytes for a %d-byte input", in, got, len(in))
		}
	}
}

// drawBatch draws a small valid batch: sparse and contiguous procs, empty
// and long names, NaN and −0 among the values.
func drawBatch(r *stats.RNG) Batch {
	b := Batch{Region: r.Intn(8), Epoch: r.Intn(3), At: sim.Time(r.Intn(1 << 30))}
	proc := -1
	for k := r.Intn(12); k > 0; k-- {
		proc += 1 + r.Intn(3)*r.Intn(500)
		b.Triples = append(b.Triples, clock.StampTriple{Proc: proc, Val: uint64(r.Intn(1 << 20)), Sent: uint64(r.Intn(300))})
		if r.Bool(0.5) {
			v := []float64{1, 0, -2.5, math.NaN(), math.Copysign(0, -1)}[r.Intn(5)]
			b.Entries = append(b.Entries, BatchEntry{Proc: proc, Epoch: r.Intn(3), Var: strings.Repeat("p", r.Intn(12)), Value: v})
		}
	}
	return b
}

// mutateBatch turns a valid encoding into one of the shapes a damaged or
// hostile batch takes.
func mutateBatch(r *stats.RNG, wire []byte) []byte {
	out := bytes.Clone(wire)
	width := func(off int) int { _, n := binary.Uvarint(out[off:]); return n }
	splice := func(off int, v uint64) []byte { // the varint at off replaced by v
		return append(binary.AppendUvarint(bytes.Clone(out[:off]), v), out[off+width(off):]...)
	}
	triples := width(0)
	triples += width(triples)
	triples += width(triples) // past region, epoch, at
	_, n, _ := clock.AppendDecodeStampBatch(nil, out[triples:])
	entries := triples + n // the entry count
	big := uint64(1) << (32 + r.Intn(32))
	switch r.Intn(12) {
	case 0:
		for i := range out {
			out[i] = byte(r.Intn(256))
		}
	case 1:
		out = out[:r.Intn(len(out))]
	case 2:
		out = splice(triples, big)
	case 3:
		out = splice(entries, big)
	case 4: // the first triple's gap: zero, or past int
		out = splice(triples+width(triples), []uint64{0, math.MaxUint64, math.MaxInt64}[r.Intn(3)])
	case 5: // the first entry's gap likewise
		out = splice(entries+width(entries), []uint64{0, math.MaxUint64, math.MaxInt64}[r.Intn(3)])
	case 6: // the first entry's name length
		off := entries + width(entries)
		off += width(off)
		off += width(off)
		out = splice(off, []uint64{1 << 63, math.MaxUint64, uint64(len(out)), big}[r.Intn(4)])
	case 7:
		out[r.Intn(len(out))] ^= byte(1 + r.Intn(255))
	case 8:
		out = append(out, byte(r.Intn(256))) // a prefix decode: trailing bytes are the next batch's
	}
	return out // cases 9–11: the valid encoding itself
}

// TestDecodeBatchSurvivesHostileBytes is the property at a fixed seed:
// every outcome is reached, nothing panics, every batch that decodes
// round-trips, and no input makes DecodeWire allocate more than a constant
// times its length.
func TestDecodeBatchSurvivesHostileBytes(t *testing.T) {
	r := stats.NewRNG(29)
	var seen [outCases]int
	worst := 0.0
	for trial := 0; trial < 3000; trial++ {
		b := drawBatch(r)
		wire := b.AppendWire(nil)
		var back Batch
		if n, err := back.DecodeWire(wire); err != nil || n != len(wire) || !sameBatch(b, back) {
			t.Fatalf("a drawn batch changed across encode → decode (err %v)\ndrawn:   %+v\ndecoded: %+v", err, b, back)
		}
		data := mutateBatch(r, wire)
		got, limit := batchAllocBytes(data), uint64(64*len(data)+4096)
		if got > limit {
			t.Fatalf("DecodeWire allocated %d bytes for a %d-byte input (limit %d): % x", got, len(data), limit, data)
		}
		worst = max(worst, float64(got)/float64(limit))
		seen[batchHostile(t, data)]++
	}
	t.Logf("inputs by outcome: %v; worst allocation %.0f%% of 64 × len + 4096", seen, 100*worst)
	for out, k := range seen {
		if k < 30 {
			t.Errorf("the draw reached outcome %d only %d times", out, k)
		}
	}
}

// FuzzDecodeBatch is the same body under the native fuzzer; it reaches
// clock.AppendDecodeStampBatch both directly and through the batch header, and
// Batch.DecodeWire into a used batch. The checked-in corpus in
// testdata/fuzz/FuzzDecodeBatch holds the two crashers above, a valid
// batch, the same batch cut short, and a batch whose entry names equal,
// differ from and shorten the names longBatch holds at the same slots.
func FuzzDecodeBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		batchHostile(t, data)
	})
}
