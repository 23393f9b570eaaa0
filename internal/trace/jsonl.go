package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"pervasive/internal/obs"
)

// JSONL is a streaming line-oriented trace encoding: a header line
// {"n":N}, one record object per line, and — when the trace carries a
// metrics snapshot — a trailing {"metrics":{...}} line. Unlike
// EncodeJSON, neither side ever holds the whole trace in one buffer,
// so multi-gigabyte traces can be produced and consumed with O(1)
// memory via DecodeJSONLFunc.

type jsonlHeader struct {
	N int `json:"n"`
}

type jsonlTrailer struct {
	Metrics *obs.Snapshot `json:"metrics"`
}

// EncodeJSONL writes the trace in JSONL form.
func (t *Trace) EncodeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode terminates each value with '\n'
	if err := enc.Encode(jsonlHeader{N: t.N}); err != nil {
		return fmt.Errorf("trace: encode jsonl header: %w", err)
	}
	for i := range t.Records {
		if err := enc.Encode(&t.Records[i]); err != nil {
			return fmt.Errorf("trace: encode jsonl record %d: %w", i, err)
		}
	}
	if t.Metrics != nil {
		if err := enc.Encode(jsonlTrailer{Metrics: t.Metrics}); err != nil {
			return fmt.Errorf("trace: encode jsonl metrics: %w", err)
		}
	}
	return bw.Flush()
}

// DecodeJSONLFunc streams a JSONL trace, calling fn once per record in
// file order. It returns the process count and the metrics snapshot
// (nil if the stream has none). If fn returns an error, decoding stops
// and that error is returned.
//
// Record lines are distinguished from the metrics trailer by shape: a
// record always carries a "type", the trailer a "metrics" key and no type.
func DecodeJSONLFunc(r io.Reader, fn func(Record) error) (int, *obs.Snapshot, error) {
	dec := json.NewDecoder(r)
	var hdr jsonlHeader
	if err := dec.Decode(&hdr); err != nil {
		return 0, nil, fmt.Errorf("trace: decode jsonl header: %w", err)
	}
	if hdr.N <= 0 {
		return 0, nil, fmt.Errorf("trace: invalid process count %d", hdr.N)
	}
	// Each line is decoded once, into both shapes: the record's fields and
	// the trailer's key.
	var line struct {
		Record
		Metrics *obs.Snapshot `json:"metrics"`
	}
	var metrics *obs.Snapshot
	for i := 0; ; i++ {
		line.Record, line.Metrics = Record{}, nil
		if err := dec.Decode(&line); err != nil {
			if errors.Is(err, io.EOF) {
				return hdr.N, metrics, nil
			}
			return hdr.N, metrics, fmt.Errorf("trace: decode jsonl line %d: %w", i+1, err)
		}
		if line.Type == "" {
			if line.Metrics == nil {
				return hdr.N, metrics, fmt.Errorf("trace: jsonl line %d is neither record nor metrics", i+1)
			}
			metrics = line.Metrics
			continue
		}
		if err := line.check(hdr.N); err != nil {
			return hdr.N, metrics, fmt.Errorf("trace: jsonl record %d %w", i+1, err)
		}
		if err := fn(line.Record); err != nil {
			return hdr.N, metrics, err
		}
	}
}

// DecodeJSONL reads a whole JSONL trace into memory.
func DecodeJSONL(r io.Reader) (*Trace, error) {
	var records []Record
	n, metrics, err := DecodeJSONLFunc(r, func(rec Record) error {
		records = append(records, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := New(n)
	t.Records = records
	t.Metrics = metrics
	return t, nil
}
