package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// ReadTrace round-trips the JSONL stream emit produces: event names, the
// monotone timestamp, and every typed field.
func TestReadTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	r := NewRegistry(&buf)
	r.Emit("run_start", "program", "p", "workers", 2)
	r.Emit("bug", "type", "assertion failure", "message", "m", "choices", "fail@0")
	r.Emit("run_end", "complete", true)

	events, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("decoded %d events, want 3", len(events))
	}
	if events[0].Ev != "run_start" || events[1].Ev != "bug" || events[2].Ev != "run_end" {
		t.Errorf("event names = %s %s %s", events[0].Ev, events[1].Ev, events[2].Ev)
	}
	if events[0].Str("program") != "p" {
		t.Errorf("program = %q, want p", events[0].Str("program"))
	}
	if w, ok := events[0].Fields["workers"].(float64); !ok || w != 2 {
		t.Errorf("workers = %v, want 2", events[0].Fields["workers"])
	}
	if events[1].Str("message") != "m" || events[1].Str("choices") != "fail@0" {
		t.Errorf("bug fields = %v", events[1].Fields)
	}
	if c, ok := events[2].Fields["complete"].(bool); !ok || !c {
		t.Errorf("complete = %v, want true", events[2].Fields["complete"])
	}
	for i := 1; i < len(events); i++ {
		if events[i].TimeUs < events[i-1].TimeUs {
			t.Errorf("timestamps not monotone: %d then %d", events[i-1].TimeUs, events[i].TimeUs)
		}
	}
}

// A malformed line fails with its line number instead of silently
// truncating the decoded stream.
func TestReadTraceMalformedLine(t *testing.T) {
	in := `{"t_us":1,"ev":"a"}
{"t_us":2,"ev":
`
	_, err := ReadTrace(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("err = %v, want line-2 parse error", err)
	}
}

// A line longer than the scanner's 1 MiB limit fails with its own line number,
// not the number of the last line read before it.
func TestReadTraceOverlongLine(t *testing.T) {
	in := `{"t_us":1,"ev":"a"}` + "\n" + `{"ev":"` + strings.Repeat("x", 1<<20) + `"}` + "\n"
	_, err := ReadTrace(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "trace line 2:") {
		t.Errorf("err = %v, want a line-2 scanner error", err)
	}
}

// FuzzReadTrace is ReadTrace under hostile input. Whatever the bytes, it must
// not panic and must allocate in proportion to the input, and a trace it
// accepts, re-marshalled one event per line, must decode to equal events. The
// committed corpus (testdata/fuzz/FuzzReadTrace) runs as a plain test; `go
// test -fuzz FuzzReadTrace ./internal/obs` explores from there.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		events, err := ReadTrace(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// The scanner's 64 KiB buffer plus a generous factor for decoded
		// values (a one-byte JSON token becomes an interface and a map slot).
		if grew, budget := after.TotalAlloc-before.TotalAlloc, uint64(512*len(data)+1<<20); grew > budget {
			t.Fatalf("decoding %d bytes allocated %d, budget %d", len(data), grew, budget)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		for _, ev := range events {
			m := map[string]any{"t_us": ev.TimeUs, "ev": ev.Ev}
			for k, v := range ev.Fields {
				m[k] = v
			}
			line, err := json.Marshal(m)
			if err != nil {
				t.Fatalf("accepted event %+v does not marshal: %v", ev, err)
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
		again, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("re-marshalled trace does not decode: %v\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(events, again) {
			t.Fatalf("re-marshalled trace decodes differently:\nfirst:  %+v\nsecond: %+v", events, again)
		}
	})
}
