package checker

import (
	"encoding/binary"
	"fmt"
	"math"

	"pervasive/internal/clock"
	"pervasive/internal/sim"
)

// Batch is one aggregator→root sync flush: the coalesced strobe-stamp
// watermarks of every process that reported since the previous flush,
// plus value metadata for the boundary-relevant subset (processes read
// by clauses that span regions — region-local clause inputs stay local,
// only their verdicts matter upstream and those ride the clause state).
type Batch struct {
	Region int
	// Epoch is the aggregator's regional epoch; the root discards batches
	// from before the aggregator's latest recovery.
	Epoch int
	At    sim.Time
	// Triples are the per-process (proc, val, sent) stamp watermarks, in
	// proc order.
	Triples []clock.StampTriple
	// Entries carry the boundary-relevant values, in proc order.
	Entries []BatchEntry
}

// BatchEntry is one boundary-relevant value in a sync batch.
type BatchEntry struct {
	Proc  int
	Epoch int // sender's crash/recovery epoch
	Var   string
	Value float64
}

// AppendWire appends the batch's wire encoding to dst: the header
// (region, regional epoch, at), the delta-coded stamp-triple block
// (clock.AppendStampBatch), then the entry block with proc ids
// delta-coded the same way.
func (b *Batch) AppendWire(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(b.Region))
	dst = binary.AppendUvarint(dst, uint64(b.Epoch))
	dst = binary.AppendUvarint(dst, uint64(b.At))
	dst = clock.AppendStampBatch(dst, b.Triples)
	dst = binary.AppendUvarint(dst, uint64(len(b.Entries)))
	prev := -1
	for _, e := range b.Entries {
		if e.Proc <= prev {
			panic(fmt.Sprintf("checker: batch entries must be sorted by proc (%d after %d)", e.Proc, prev)) //lint:allow hotpath(cold panic path: batches are built from a sorted pending set, so this is a programming error and the process dies here)
		}
		dst = binary.AppendUvarint(dst, uint64(e.Proc-prev))
		prev = e.Proc
		dst = binary.AppendUvarint(dst, uint64(e.Epoch))
		dst = binary.AppendUvarint(dst, uint64(len(e.Var)))
		dst = append(dst, e.Var...) //lint:allow hotpath(amortized growth: the tree encodes into one reused buffer, which stops growing at the largest batch)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Value))
	}
	return dst
}

// DecodeWire decodes one batch from the front of b into bt, returning the
// bytes consumed. It reuses bt's Triples and Entries arrays, and an entry
// keeps its slot's previous Var string when the bytes are equal, so
// decoding batch after batch into one Batch stops allocating once the
// arrays have grown to the largest batch. On an error bt holds a partial
// decode.
func (bt *Batch) DecodeWire(b []byte) (int, error) {
	d := batchDecoder{b: b}
	region, err := d.uvarint("region")
	if err != nil {
		return 0, err
	}
	epoch, err := d.uvarint("epoch")
	if err != nil {
		return 0, err
	}
	at, err := d.uvarint("at")
	if err != nil {
		return 0, err
	}
	bt.Region, bt.Epoch, bt.At = int(region), int(epoch), sim.Time(at)
	triples, n, err := clock.AppendDecodeStampBatch(bt.Triples[:0], b[d.off:])
	bt.Triples = triples
	if err != nil {
		return 0, err
	}
	d.off += n
	count, err := d.uvarint("entry count")
	if err != nil {
		return 0, err
	}
	ents := bt.Entries[:0]
	prev := -1
	for i := uint64(0); i < count; i++ {
		gap, err := d.uvarint("entry proc")
		if err != nil {
			return 0, err
		}
		if gap == 0 || gap > uint64(math.MaxInt-1-prev) {
			return 0, entryError("bad proc delta at", i)
		}
		prev += int(gap)
		pe, err := d.uvarint("entry epoch")
		if err != nil {
			return 0, err
		}
		vlen, err := d.uvarint("entry var len")
		if err != nil {
			return 0, err
		}
		if len(b)-d.off < 8 || vlen > uint64(len(b)-d.off-8) {
			return 0, entryError("truncated", i)
		}
		name := b[d.off : d.off+int(vlen)]
		d.off += int(vlen)
		val := math.Float64frombits(binary.LittleEndian.Uint64(b[d.off:]))
		d.off += 8
		if len(ents) == cap(ents) {
			ents = append(ents, BatchEntry{}) //lint:allow hotpath(amortized growth: the decoded batch is reused, so its entries stop growing at the largest batch)
		} else {
			ents = ents[:len(ents)+1]
		}
		e := &ents[len(ents)-1]
		e.Proc, e.Epoch, e.Var, e.Value = prev, int(pe), keepName(e.Var, name), val
	}
	bt.Entries = ents
	return d.off, nil
}

// keepName returns old when its bytes equal b, so that a decoded entry
// keeps its slot's name, and a copy of b otherwise.
func keepName(old string, b []byte) string { //lint:allow hotpath(a conversion that is only compared does not copy; a name new to its slot is the one copy a fresh decode makes of every name)
	if old == string(b) {
		return old
	}
	return string(b)
}

// batchDecoder reads a batch's fields off the front of b.
type batchDecoder struct {
	b   []byte
	off int
}

func (d *batchDecoder) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("checker: batch: bad %s varint", what) //lint:allow hotpath(cold error path: a damaged batch is refused once; the happy path never formats)
	}
	d.off += n
	return v, nil
}

// entryError is the error for the i-th entry, one that decoded but cannot
// be right.
func entryError(what string, i uint64) error {
	return fmt.Errorf("checker: batch: %s entry %d", what, i) //lint:allow hotpath(cold error path: as in batchDecoder.uvarint)
}
