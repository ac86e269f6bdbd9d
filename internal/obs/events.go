package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
)

// eventWriter serializes events to an io.Writer as JSONL: one object per
// line, {"t_us":<since start>,"ev":"<name>",...key/value pairs}. Lines are
// hand-assembled into a reused buffer under the lock — no maps, no
// reflection — so the enabled path stays cheap and the disabled path is
// the registry's nil check. The first write error is retained (Registry.Err)
// and later events are counted but dropped.
type eventWriter struct {
	mu    sync.Mutex
	w     io.Writer
	buf   []byte
	start time.Time
	err   error
}

func (e *eventWriter) emit(ev string, kv []any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	b := append(e.buf[:0], `{"t_us":`...)
	b = strconv.AppendInt(b, time.Since(e.start).Microseconds(), 10)
	b = append(b, `,"ev":`...)
	b = strconv.AppendQuote(b, ev)
	for i := 0; i+1 < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprint(kv[i])
		}
		b = append(b, ',')
		b = strconv.AppendQuote(b, key)
		b = append(b, ':')
		switch v := kv[i+1].(type) {
		case int:
			b = strconv.AppendInt(b, int64(v), 10)
		case int64:
			b = strconv.AppendInt(b, v, 10)
		case uint64:
			b = strconv.AppendUint(b, v, 10)
		case bool:
			b = strconv.AppendBool(b, v)
		case string:
			b = strconv.AppendQuote(b, v)
		default:
			b = strconv.AppendQuote(b, fmt.Sprint(v))
		}
	}
	b = append(b, '}', '\n')
	e.buf = b
	if e.err == nil {
		if _, err := e.w.Write(b); err != nil {
			e.err = err
		}
	}
}
