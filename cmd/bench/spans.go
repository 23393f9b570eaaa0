package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from outside it. Spans
// of one rep share Rep; Parent indexes the span that caused this one
// (-1 for the rep itself). Times are microseconds since process start.
type span struct {
	Workload string `json:"workload,omitempty"`
	Name     string `json:"name"`
	StartUs  int64  `json:"start_us"`
	EndUs    int64  `json:"end_us"`
	Parent   int    `json:"parent"`
	Rep      int    `json:"rep"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so untraced reps run the same code without the appends.
type spanLog struct {
	spans []span
}

var processStart = time.Now()

func sinceStartUs() int64 { return time.Since(processStart).Microseconds() }

func (l *spanLog) start(name string, parent, rep int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, StartUs: sinceStartUs(), Parent: parent, Rep: rep})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	l.spans[id].EndUs = sinceStartUs()
}

// tagged returns the spans labelled with their workload.
func (l *spanLog) tagged(workload string) []span {
	out := append([]span(nil), l.spans...)
	for i := range out {
		out[i].Workload = workload
	}
	return out
}

func writeSpans(path string, spans []span) error {
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
