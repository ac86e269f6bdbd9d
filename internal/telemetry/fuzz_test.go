package telemetry

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// FuzzParseExposition feeds arbitrary scrape bodies to the strict parser. It
// must not panic, must allocate in proportion to its input, and an
// exposition it accepts must parse to the same samples once re-rendered, one
// line per sample with renderLabels' label set. The committed corpus
// (testdata/fuzz/FuzzParseExposition) holds a WriteMetrics scrape, a
// histogram family and malformed lines; `go test -fuzz FuzzParseExposition
// ./internal/telemetry` explores from there.
func FuzzParseExposition(f *testing.F) {
	f.Fuzz(func(t *testing.T, body string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		samples, err := ParseExposition(strings.NewReader(body))
		runtime.ReadMemStats(&after)
		// The scanner's 1 MiB line buffer, plus a generous factor for the
		// per-sample maps and dedup keys.
		if grew, budget := after.TotalAlloc-before.TotalAlloc, uint64(64*len(body)+2<<20); grew > budget {
			t.Fatalf("parsing %d bytes allocated %d, budget %d", len(body), grew, budget)
		}
		if err != nil {
			return
		}
		var b strings.Builder
		for _, s := range samples {
			fmt.Fprintf(&b, "%s%s %v\n", s.Name, renderLabels(s.Labels), s.Value)
		}
		again, err := ParseExposition(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("re-rendered exposition rejected: %v\n%s", err, b.String())
		}
		if !reflect.DeepEqual(nanFree(samples), nanFree(again)) {
			t.Fatalf("re-rendered exposition parses differently:\nfirst:  %v\nsecond: %v", samples, again)
		}
	})
}

// nanFree replaces NaN values, which equal nothing, by their bits.
func nanFree(samples []Sample) []Sample {
	out := append([]Sample(nil), samples...)
	for i := range out {
		if math.IsNaN(out[i].Value) {
			out[i].Value = float64(math.Float64bits(out[i].Value))
		}
	}
	return out
}
