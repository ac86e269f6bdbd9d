package report

import (
	"strings"
	"time"

	"jaaru/internal/obs"
)

// Metrics renders merged observability counters as the key/value block
// `jaaru -metrics` prints under its summary, one row per labelled
// obs.Fields row whose block is open, in Line order; the benchmark harness
// parses it by these labels.
func Metrics(m *obs.Metrics) string {
	vals := m.Values()
	rows := make([]KV, obs.NumFields)
	for i, f := range obs.Fields {
		if f.Label == "" || !f.Block.Open(m) {
			continue
		}
		rows[f.Line-1] = KV{Key: f.Label, Value: vals[i]}
		if strings.HasSuffix(f.Name, "_ns") {
			rows[f.Line-1].Value = time.Duration(vals[i]).Round(time.Microsecond).String()
		}
	}
	kvs := rows[:0]
	for _, kv := range rows {
		if kv.Key != "" {
			kvs = append(kvs, kv)
		}
	}
	return KVBlock("observability", kvs)
}
