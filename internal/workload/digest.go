package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"pervasive/internal/world"
)

// Digest returns a hex SHA-256 over the full event stream — time,
// object, attribute and value of every event, in order. Two runs whose
// world planes evolved identically have equal digests; this is the
// byte-identity oracle of the record/replay tests and cmd/tracedump.
func Digest(evs []Event) string {
	h := sha256.New()
	var buf [8]byte
	for _, ev := range evs {
		binary.LittleEndian.PutUint64(buf[:], uint64(ev.At))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(ev.Obj))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(len(ev.Attr)))
		h.Write(buf[:])
		h.Write([]byte(ev.Attr))
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(ev.Val))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ValuesDigest hashes only (obj, attr, value), ignoring times — the
// identity the live engine can honor: a replay feeds the same mutations
// in the same order, but wall-clock timestamps are not reproducible.
func ValuesDigest(evs []Event) string {
	h := sha256.New()
	var buf [8]byte
	for _, ev := range evs {
		binary.LittleEndian.PutUint64(buf[:], uint64(ev.Obj))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(len(ev.Attr)))
		h.Write(buf[:])
		h.Write([]byte(ev.Attr))
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(ev.Val))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// LogDigest is Digest over a ground-truth world log, each entry read as
// the workload event that would have set it.
func LogDigest(log []world.Event) string {
	evs := make([]Event, len(log))
	for i, ev := range log {
		evs[i] = Event{At: ev.At, Obj: ev.Object, Attr: ev.Attr, Val: ev.New}
	}
	return Digest(evs)
}
