// Package trace records executions of the paper's execution model
// (Section 2.2): at each process, a sequence of events of type compute
// (c), sense (n), actuate (a), send (s) and receive (r), each optionally
// carrying logical timestamps. Traces serialize to JSON for offline
// inspection (cmd/tracedump) and replay.
package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"pervasive/internal/clock"
	"pervasive/internal/obs"
	"pervasive/internal/sim"
)

// Type is the event type of the execution model.
type Type string

// Event types. Sense and actuate are the internal events that touch the
// world plane; send/receive are network-plane communication.
const (
	Compute Type = "c"
	Sense   Type = "n"
	Actuate Type = "a"
	Send    Type = "s"
	Receive Type = "r"
)

// Valid reports whether t is one of the five event types.
func (t Type) Valid() bool {
	switch t {
	case Compute, Sense, Actuate, Send, Receive:
		return true
	}
	return false
}

// Record is one event of one process.
type Record struct {
	Proc    int          `json:"proc"`
	Type    Type         `json:"type"`
	At      sim.Time     `json:"at"`
	Lamport uint64       `json:"lamport,omitempty"`
	Vector  clock.Vector `json:"vector,omitempty"` // nil, or one entry per process
	Attr    string       `json:"attr,omitempty"`
	Value   float64      `json:"value,omitempty"`
	Peer    int          `json:"peer,omitempty"` // counterpart process of s/r events
	Note    string       `json:"note,omitempty"`
}

// Trace is an execution trace over N processes.
type Trace struct {
	N       int      `json:"n"`
	Records []Record `json:"records"`
	// Metrics optionally embeds the observability snapshot taken at the
	// end of the run that produced this trace (see internal/obs), so a
	// trace file is self-describing about the run's runtime behaviour.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`

	// Index over Records, built lazily on first ByProcess/Counts and
	// maintained incrementally by Append. byProc holds, per process that
	// has records, the indices of its records in recorded order — keyed
	// by process, so its size follows the records and not N, which a
	// decoded header may set to anything; counts mirrors the per-type
	// totals. Both are dropped together by InvalidateIndex — Append's
	// incremental path assumes byProc != nil implies counts is in sync.
	byProc map[int][]int
	counts map[Type]int
}

// New creates an empty trace for n processes.
func New(n int) *Trace { return &Trace{N: n} }

// Append adds a record; it panics on invalid process or type, which always
// indicates an instrumentation bug.
func (t *Trace) Append(r Record) {
	if r.Proc < 0 || r.Proc >= t.N {
		panic(fmt.Sprintf("trace: process %d out of range [0,%d)", r.Proc, t.N))
	}
	if !r.Type.Valid() {
		panic(fmt.Sprintf("trace: invalid event type %q", r.Type))
	}
	t.Records = append(t.Records, r)
	if t.byProc != nil {
		t.byProc[r.Proc] = append(t.byProc[r.Proc], len(t.Records)-1)
		t.counts[r.Type]++
	}
}

// Len returns the number of records.
func (t *Trace) Len() int { return len(t.Records) }

// InvalidateIndex drops the per-process index. Append maintains it
// automatically; call this only after mutating Records directly.
func (t *Trace) InvalidateIndex() {
	t.byProc, t.counts = nil, nil
}

func (t *Trace) buildIndex() {
	t.byProc = make(map[int][]int)
	t.counts = make(map[Type]int, 5)
	for i, r := range t.Records {
		t.byProc[r.Proc] = append(t.byProc[r.Proc], i)
		t.counts[r.Type]++
	}
}

// ByProcess returns the records of process i in recorded order. The
// first call builds a per-process index, so repeated calls (one per
// process is the common pattern in cmd/tracedump) cost O(records of i)
// instead of rescanning the whole trace.
func (t *Trace) ByProcess(i int) []Record {
	if i < 0 || i >= t.N {
		return nil
	}
	if t.byProc == nil {
		t.buildIndex()
	}
	idx := t.byProc[i]
	if len(idx) == 0 {
		return nil
	}
	out := make([]Record, len(idx))
	for k, j := range idx {
		out[k] = t.Records[j]
	}
	return out
}

// Counts returns the number of events of each type. The returned map is
// a copy; mutating it does not affect the trace.
func (t *Trace) Counts() map[Type]int {
	if t.byProc == nil {
		t.buildIndex()
	}
	m := make(map[Type]int, len(t.counts))
	for k, v := range t.counts {
		m[k] = v
	}
	return m
}

// EncodeJSON writes the trace as a single JSON object.
func (t *Trace) EncodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t)
}

// DecodeJSON reads a trace written by EncodeJSON and validates it. The
// records are decoded and checked one at a time, so the first bad one ends
// the decode before the records behind it cost an allocation: what a
// decode allocates stays within a constant times the input's length.
func DecodeJSON(r io.Reader) (*Trace, error) {
	var doc struct {
		N       int             `json:"n"`
		Records json.RawMessage `json:"records"`
		Metrics *obs.Snapshot   `json:"metrics"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	if doc.N <= 0 {
		return nil, fmt.Errorf("trace: invalid process count %d", doc.N)
	}
	t := &Trace{N: doc.N, Metrics: doc.Metrics}
	if len(doc.Records) == 0 || string(doc.Records) == "null" {
		return t, nil
	}
	dec := json.NewDecoder(bytes.NewReader(doc.Records))
	if tok, _ := dec.Token(); tok != json.Delim('[') {
		return nil, fmt.Errorf("trace: decode: records is not an array")
	}
	var rec Record
	for i := 0; dec.More(); i++ {
		rec = Record{}
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("trace: decode record %d: %w", i, err)
		}
		if err := rec.check(t.N); err != nil {
			return nil, fmt.Errorf("trace: record %d %w", i, err)
		}
		t.Records = append(t.Records, rec)
	}
	return t, nil
}

// check reports what makes r no record of a trace over n processes: a
// process out of range, an invalid type, or a vector stamp whose length is
// neither 0 (unstamped) nor n. The last bounds n by the input whenever a
// consumer sizes something by n from the stamps, as the lattice analysis
// does. An empty stamp ("vector": []) becomes nil, so a decoded record is
// unstamped in one form only: Vector == nil.
func (r *Record) check(n int) error {
	switch {
	case r.Proc < 0 || r.Proc >= n:
		return fmt.Errorf("has process %d out of range", r.Proc)
	case !r.Type.Valid():
		return fmt.Errorf("has invalid type %q", r.Type)
	case len(r.Vector) != 0 && len(r.Vector) != n:
		return fmt.Errorf("has a vector of %d entries in a trace of %d processes", len(r.Vector), n)
	}
	if len(r.Vector) == 0 {
		r.Vector = nil
	}
	return nil
}
