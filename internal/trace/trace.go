// Package trace records executions of the paper's execution model
// (Section 2.2): at each process, a sequence of events of type compute
// (c), sense (n), actuate (a), send (s) and receive (r), each optionally
// carrying logical timestamps. Traces serialize to JSON for offline
// inspection (cmd/tracedump) and replay.
package trace

import (
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
	Vector  clock.Vector `json:"vector,omitempty"`
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
	// maintained incrementally by Append. byProc holds, per process,
	// the indices of its records in recorded order; counts mirrors the
	// per-type totals. Both are dropped together by InvalidateIndex —
	// Append's incremental path assumes byProc != nil implies counts is
	// in sync.
	byProc [][]int
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
	t.byProc = make([][]int, t.N)
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

// DecodeJSON reads a trace written by EncodeJSON and validates it.
func DecodeJSON(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	if t.N <= 0 {
		return nil, fmt.Errorf("trace: invalid process count %d", t.N)
	}
	for i, rec := range t.Records {
		if rec.Proc < 0 || rec.Proc >= t.N {
			return nil, fmt.Errorf("trace: record %d has process %d out of range", i, rec.Proc)
		}
		if !rec.Type.Valid() {
			return nil, fmt.Errorf("trace: record %d has invalid type %q", i, rec.Type)
		}
	}
	return &t, nil
}
