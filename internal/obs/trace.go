package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// TraceEvent is one decoded line of a JSONL event trace (the stream written
// through Options.EventTrace). Fields holds every key except the two fixed
// ones; numeric values decode as float64, JSON's default.
type TraceEvent struct {
	TimeUs int64
	Ev     string
	Fields map[string]any
}

// Str returns the field value as a string, or "" when absent or not a
// string — the common accessor for event fields like "message" or "choices".
func (e TraceEvent) Str(key string) string {
	s, _ := e.Fields[key].(string)
	return s
}

// ReadTrace decodes a JSONL event trace back into structured events, for
// tools that post-process a recorded run (jaaru explain -from-trace). Blank
// lines are skipped; a malformed line fails with its line number, since a
// trace cut off mid-write is worth diagnosing rather than silently
// truncating.
func ReadTrace(r io.Reader) ([]TraceEvent, error) {
	var out []TraceEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", lineNo, err)
		}
		if m == nil { // the line was JSON null, which decodes without error
			return nil, fmt.Errorf("trace line %d: not a JSON object", lineNo)
		}
		ev := TraceEvent{Fields: m}
		if t, ok := m["t_us"].(float64); ok {
			ev.TimeUs = int64(t)
		}
		ev.Ev, _ = m["ev"].(string)
		delete(m, "t_us")
		delete(m, "ev")
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		// The scanner failed on the line after the last one it returned.
		return nil, fmt.Errorf("trace line %d: %w", lineNo+1, err)
	}
	return out, nil
}
