package flight

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"

	"pervasive/internal/clock"
	"pervasive/internal/lattice"
	"pervasive/internal/obs"
	"pervasive/internal/sim"
)

// DumpVersion is the current dump format version, carried in every
// header so readers can reject formats they do not understand.
const DumpVersion = 1

// RunTrigger is the trigger of a run record: a Dump, in the "virtual"
// time base, of every sense event of a whole run, each carrying its
// vector stamp when the clock kind has one (see core.Harness.RunRecord).
const RunTrigger = "run"

// Event is one decoded flight record in a dump: Rec with the kind and
// attribute resolved to strings. Peer is -1 when the event has no
// counterpart process (the field is always emitted — 0 is a valid
// process index, so omitempty would be ambiguous). Vector is set only on
// the sense events of a run record, and then has one entry per process.
type Event struct {
	Kind      string       `json:"kind"`
	Proc      int          `json:"proc"`
	At        sim.Time     `json:"at"`
	Peer      int          `json:"peer"`
	Epoch     int          `json:"epoch,omitempty"`
	Seq       uint64       `json:"seq,omitempty"`
	Attr      string       `json:"attr,omitempty"`
	Value     float64      `json:"value,omitempty"`
	Clock     uint64       `json:"clock,omitempty"`
	PeerClock uint64       `json:"peer_clock,omitempty"`
	Vector    clock.Vector `json:"vector,omitempty"`
}

// Dump is one trigger-scoped flush of the recorder: the last-K events
// of every involved process, merged into one (At, Proc, record order)
// sequence, plus the trigger that fired and — when the harness attaches
// one — the obs snapshot of the run at dump time. A dump is the recent
// causal context of a detection or fault; only a run record (RunTrigger)
// holds a whole run.
type Dump struct {
	Version  int      `json:"version"`
	Trigger  string   `json:"trigger"`
	At       sim.Time `json:"at"`
	TimeBase string   `json:"time_base"`
	N        int      `json:"n"`     // total processes in the run
	Procs    []int    `json:"procs"` // processes whose rings were flushed
	Events   []Event  `json:"events,omitempty"`
	// Metrics optionally embeds the obs snapshot taken when the dump was
	// triggered, making each dump self-describing about the run state.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// Snapshot builds a Dump of the involved processes' rings (all rings
// when procs is empty) without invoking the trigger sink. Events are
// ordered by (At, Proc, intra-ring order), which is deterministic for
// any one execution: the DES is single-threaded, and in live mode each
// ring is already in that process's program order.
func (r *Recorder) Snapshot(trigger string, at sim.Time, procs ...int) *Dump {
	if r == nil {
		return nil
	}
	involved := procs
	if len(involved) == 0 {
		involved = make([]int, len(r.rings))
		for i := range involved {
			involved[i] = i
		}
	} else {
		involved = append([]int(nil), involved...)
		sort.Ints(involved)
		// Deduplicate and drop out-of-range processes.
		kept := involved[:0]
		for i, p := range involved {
			if p < 0 || p >= len(r.rings) {
				continue
			}
			if i > 0 && len(kept) > 0 && kept[len(kept)-1] == p {
				continue
			}
			kept = append(kept, p)
		}
		involved = kept
	}

	var recs []Rec
	for _, p := range involved {
		if r.locks != nil {
			r.locks[p].Lock()
		}
		recs = r.rings[p].snap(recs)
		if r.locks != nil {
			r.locks[p].Unlock()
		}
	}
	// Rings were concatenated in ascending proc order with each ring
	// oldest-first, so a stable sort by At alone yields the documented
	// (At, Proc, intra-ring order) total order.
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].At < recs[j].At })

	d := &Dump{
		Version:  DumpVersion,
		Trigger:  trigger,
		At:       at,
		TimeBase: r.timeBase,
		N:        len(r.rings),
		Procs:    involved,
		Events:   make([]Event, 0, len(recs)),
	}
	for _, rec := range recs {
		d.Events = append(d.Events, Event{
			Kind:      rec.Kind.String(),
			Proc:      int(rec.Proc),
			At:        rec.At,
			Peer:      int(rec.Peer),
			Epoch:     int(rec.Epoch),
			Seq:       rec.Seq,
			Attr:      r.AttrName(rec.Attr),
			Value:     rec.Value,
			Clock:     rec.Clock,
			PeerClock: rec.PeerClock,
		})
	}
	return d
}

// Execution is the lattice execution of d's stamped sense events: per
// process, in dump order, each vector-stamped Sense event's stamp and
// time. It is nil when no sense carries a vector — and only a stamp sizes
// it by N, which DecodeJSONL holds to every stamp's length, so a decoded
// header cannot size it past its input.
func (d *Dump) Execution() *lattice.Execution {
	stamped := func(ev Event) bool { return ev.Kind == Sense.String() && len(ev.Vector) > 0 }
	if d == nil || !slices.ContainsFunc(d.Events, stamped) {
		return nil
	}
	ex := &lattice.Execution{
		Stamps: make([][]clock.Vector, d.N),
		Times:  make([][]sim.Time, d.N),
	}
	for _, ev := range d.Events {
		if stamped(ev) {
			ex.Stamps[ev.Proc] = append(ex.Stamps[ev.Proc], ev.Vector)
			ex.Times[ev.Proc] = append(ex.Times[ev.Proc], ev.At)
		}
	}
	return ex
}

// ---- JSONL codec ----
//
// A dump serializes as a JSONL stream: a header line {"flight":{version,
// trigger, at, time_base, n, procs}}, one Event object per line, and —
// when present — a trailing {"metrics":{...}} line.

type dumpHeader struct {
	Version  int      `json:"version"`
	Trigger  string   `json:"trigger"`
	At       sim.Time `json:"at"`
	TimeBase string   `json:"time_base"`
	N        int      `json:"n"`
	Procs    []int    `json:"procs"`
}

type dumpHeaderLine struct {
	Flight dumpHeader `json:"flight"`
}

type dumpTrailer struct {
	Metrics *obs.Snapshot `json:"metrics"`
}

// EncodeJSONL writes the dump as a JSONL stream.
func (d *Dump) EncodeJSONL(w io.Writer) error {
	if d == nil {
		return errors.New("flight: encode nil dump")
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode terminates each value with '\n'
	hdr := dumpHeaderLine{Flight: dumpHeader{
		Version: d.Version, Trigger: d.Trigger, At: d.At,
		TimeBase: d.TimeBase, N: d.N, Procs: d.Procs,
	}}
	if err := enc.Encode(hdr); err != nil {
		return fmt.Errorf("flight: encode header: %w", err)
	}
	for i := range d.Events {
		if err := enc.Encode(&d.Events[i]); err != nil {
			return fmt.Errorf("flight: encode event %d: %w", i, err)
		}
	}
	if d.Metrics != nil {
		if err := enc.Encode(dumpTrailer{Metrics: d.Metrics}); err != nil {
			return fmt.Errorf("flight: encode metrics: %w", err)
		}
	}
	return bw.Flush()
}

// DecodeJSONL reads a dump written by EncodeJSONL and validates it:
// version must be known, every event kind must parse, every process
// index must be in range and every vector stamp must have 0 or N entries.
// The last bounds N by the input whenever a stamp is present, as
// Execution needs; an empty stamp decodes as none, so a decoded event is
// unstamped in one form only: Vector == nil.
func DecodeJSONL(r io.Reader) (*Dump, error) {
	dec := json.NewDecoder(r)
	var hdr dumpHeaderLine
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("flight: decode header: %w", err)
	}
	h := hdr.Flight
	if h.Version != DumpVersion {
		return nil, fmt.Errorf("flight: unsupported dump version %d (want %d)", h.Version, DumpVersion)
	}
	if h.N <= 0 {
		return nil, fmt.Errorf("flight: invalid process count %d", h.N)
	}
	d := &Dump{
		Version: h.Version, Trigger: h.Trigger, At: h.At,
		TimeBase: h.TimeBase, N: h.N, Procs: h.Procs,
	}
	for i := 0; ; i++ {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			if errors.Is(err, io.EOF) {
				return d, nil
			}
			return nil, fmt.Errorf("flight: decode line %d: %w", i+2, err)
		}
		var probe struct {
			Kind    *string          `json:"kind"`
			Metrics *json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return nil, fmt.Errorf("flight: decode line %d: %w", i+2, err)
		}
		if probe.Kind == nil {
			if probe.Metrics == nil {
				return nil, fmt.Errorf("flight: line %d is neither event nor metrics", i+2)
			}
			d.Metrics = new(obs.Snapshot)
			if err := json.Unmarshal(*probe.Metrics, d.Metrics); err != nil {
				return nil, fmt.Errorf("flight: decode metrics: %w", err)
			}
			continue
		}
		var ev Event
		if err := json.Unmarshal(raw, &ev); err != nil {
			return nil, fmt.Errorf("flight: decode event line %d: %w", i+2, err)
		}
		if ParseKind(ev.Kind) == KindNone {
			return nil, fmt.Errorf("flight: event line %d has unknown kind %q", i+2, ev.Kind)
		}
		if ev.Proc < 0 || ev.Proc >= d.N {
			return nil, fmt.Errorf("flight: event line %d has process %d out of range", i+2, ev.Proc)
		}
		if len(ev.Vector) != 0 && len(ev.Vector) != d.N {
			return nil, fmt.Errorf("flight: event line %d has a vector of %d entries in a dump of %d processes", i+2, len(ev.Vector), d.N)
		}
		if len(ev.Vector) == 0 {
			ev.Vector = nil
		}
		d.Events = append(d.Events, ev)
	}
}
