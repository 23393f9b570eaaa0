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

// What DecodeBatch made of one input. The tallies prove the fixed-seed
// draw reaches every check in DecodeBatch and in clock.DecodeStampBatch
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
	t.Fatalf("DecodeBatch returned an error no check owns: %v", err)
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
	if ts, n, err := clock.DecodeStampBatch(data); err == nil {
		wire := clock.AppendStampBatch(nil, ts)
		back, m, err := clock.DecodeStampBatch(wire)
		if err != nil || m != len(wire) || !slices.Equal(back, ts) || n > len(data) {
			t.Fatalf("stamp batch changed across encode → decode (err %v, %d of %d bytes)\nfirst:  %v\nsecond: %v", err, m, len(wire), ts, back)
		}
	}
	b, n, err := DecodeBatch(data)
	if err != nil {
		return batchOutcome(t, err)
	}
	if n > len(data) {
		t.Fatalf("DecodeBatch consumed %d of %d bytes", n, len(data))
	}
	wire := b.AppendWire(nil)
	back, m, err := DecodeBatch(wire)
	if err != nil || m != len(wire) {
		t.Fatalf("re-encoded batch does not decode: %v (%d of %d bytes)\ninput % x\nre-encoded % x", err, m, len(wire), data, wire)
	}
	if !sameBatch(b, back) {
		t.Fatalf("batch changed across encode → decode\nfirst:  %+v\nsecond: %+v", b, back)
	}
	if again := back.AppendWire(nil); !bytes.Equal(again, wire) {
		t.Fatalf("AppendWire is not a fixed point\nfirst:  % x\nsecond: % x", wire, again)
	}
	return outDecoded
}

// batchAllocBytes is what one DecodeBatch of data allocates.
func batchAllocBytes(data []byte) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	DecodeBatch(data)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// The two inputs that crashed DecodeBatch before it bounded what it read:
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
			t.Errorf("% x: DecodeBatch allocated %d bytes for a %d-byte input", in, got, len(in))
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
	_, n, _ := clock.DecodeStampBatch(out[triples:])
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
// round-trips, and no input makes DecodeBatch allocate more than a constant
// times its length.
func TestDecodeBatchSurvivesHostileBytes(t *testing.T) {
	r := stats.NewRNG(29)
	var seen [outCases]int
	worst := 0.0
	for trial := 0; trial < 3000; trial++ {
		b := drawBatch(r)
		wire := b.AppendWire(nil)
		if back, n, err := DecodeBatch(wire); err != nil || n != len(wire) || !sameBatch(b, back) {
			t.Fatalf("a drawn batch changed across encode → decode (err %v)\ndrawn:   %+v\ndecoded: %+v", err, b, back)
		}
		data := mutateBatch(r, wire)
		got, limit := batchAllocBytes(data), uint64(64*len(data)+4096)
		if got > limit {
			t.Fatalf("DecodeBatch allocated %d bytes for a %d-byte input (limit %d): % x", got, len(data), limit, data)
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
// clock.DecodeStampBatch both directly and through the batch header. The
// checked-in corpus in testdata/fuzz/FuzzDecodeBatch holds the two crashers
// above, a valid batch and the same batch cut short.
func FuzzDecodeBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		batchHostile(t, data)
	})
}
