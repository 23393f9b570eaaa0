package clock

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Batched strobe-stamp wire encoding. A regional checker aggregator
// forwards the coalesced per-process strobe metadata of one epoch window
// upward as a batch of (proc, val, sent) triples: the process id, its
// latest own-clock component, and the per-process send counter of the
// last coalesced report. Triples are sorted by proc, so proc ids are
// delta-coded (the gap to the previous id, always >= 1) and every field
// is a uvarint — a fleet-contiguous region encodes in ~3 bytes per
// process instead of the 18 a flat (proc, val, sent) record would take.
// The codec is exact and self-delimiting: AppendDecodeStampBatch returns the
// triples plus the bytes consumed, so batches can be concatenated.

// StampTriple is one per-process entry of a batched strobe-stamp sync.
type StampTriple struct {
	Proc int
	// Val is the process's own strobe-clock component at its latest
	// coalesced report.
	Val uint64
	// Sent is the per-process report counter (Seq) of that report.
	Sent uint64
}

// AppendStampBatch appends the delta-coded wire form of ts to dst and
// returns the extended buffer. Triples must be sorted by strictly
// increasing Proc; the encoder panics otherwise — batches are built from
// sorted per-region state, so an out-of-order triple is a programming
// error, not input noise.
func AppendStampBatch(dst []byte, ts []StampTriple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ts)))
	prev := -1
	for _, t := range ts {
		if t.Proc <= prev {
			panic(fmt.Sprintf("clock: stamp batch triples must be sorted by proc (%d after %d)", t.Proc, prev)) //lint:allow hotpath(cold panic path: an unsorted batch is a programming error and the process dies here)
		}
		dst = binary.AppendUvarint(dst, uint64(t.Proc-prev))
		dst = binary.AppendUvarint(dst, t.Val)
		dst = binary.AppendUvarint(dst, t.Sent)
		prev = t.Proc
	}
	return dst
}

// AppendDecodeStampBatch decodes one batch from the front of b, appends
// its triples to dst and returns the extended slice and the number of
// bytes consumed. It grows dst at most once, by the triple count, so a
// slice reused batch after batch stops allocating at the largest batch.
// On an error it returns dst as it was.
func AppendDecodeStampBatch(dst []StampTriple, b []byte) ([]StampTriple, int, error) {
	off := 0
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return dst, 0, errors.New("clock: stamp batch: bad count varint")
	}
	off += n
	// A triple is at least three bytes: a count the rest of b cannot hold
	// is rejected before it sizes the allocation.
	if count > uint64(len(b)-off)/3 {
		return dst, 0, fmt.Errorf("clock: stamp batch: count %d exceeds the %d bytes left", count, len(b)-off) //lint:allow hotpath(cold error path: a damaged batch is refused once; the happy path never formats)
	}
	start := len(dst)
	if uint64(cap(dst)-start) < count {
		dst = append(dst[:cap(dst)], make([]StampTriple, start+int(count)-cap(dst))...) //lint:allow hotpath(growth bounded by the input: the count was checked against the bytes left, and a reused slice stops growing at the largest batch)
	}
	out := dst[start : start+int(count)]
	prev := -1
	for i := range out {
		gap, n := binary.Uvarint(b[off:])
		if n <= 0 || gap == 0 || gap > uint64(math.MaxInt-1-prev) {
			return dst[:start], 0, tripleError("bad proc delta", i)
		}
		off += n
		val, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return dst[:start], 0, tripleError("bad val", i)
		}
		off += n
		sent, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return dst[:start], 0, tripleError("bad sent", i)
		}
		off += n
		prev += int(gap)
		out[i] = StampTriple{Proc: prev, Val: val, Sent: sent}
	}
	return dst[:start+int(count)], off, nil
}

// tripleError is the error for the i-th triple's field what.
func tripleError(what string, i int) error {
	return fmt.Errorf("clock: stamp batch: %s at triple %d", what, i) //lint:allow hotpath(cold error path: as in AppendDecodeStampBatch)
}
