package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into the
// system under test. Times are nanoseconds since the trace started; Parent is
// the ID of the span that caused this one (0 for a root).
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
}

// tracer keeps spans in memory until the run ends. Only the harness's one
// goroutine records: every repetition, poll and probe runs inline.
type tracer struct {
	t0       time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

// begin opens a span and returns its ID; rep is the repetition it belongs to
// (-1 outside any repetition).
func (t *tracer) begin(name string, parent, rep int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Name: name, StartNs: time.Since(t.t0).Nanoseconds(),
		Parent: parent, Workload: t.workload, Rep: rep,
	})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.EndNs = time.Since(t.t0).Nanoseconds()
	return time.Duration(s.EndNs - s.StartNs)
}

// traceFile is the on-disk form: the spans plus the counts and metrics the
// traced run produced, so one file explains one run.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Spans    []span             `json:"spans"`
	Metrics  map[string]float64 `json:"metrics"`
}

func (t *tracer) write(path string, seed int64, metrics map[string]float64) error {
	data, err := json.MarshalIndent(traceFile{t.workload, seed, t.spans, metrics}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
