package benchlist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"jaaru/internal/core"
	"jaaru/internal/obs"
	"jaaru/internal/report"
	"jaaru/internal/telemetry"
)

// TestMetricsVocabulary pins the two metric vocabularies the benchmark
// harness parses — the `jaaru -metrics` row labels (benchmark/cli.go) and the
// Metrics json tags, which are also the jaaru_<tag> Prometheus families
// (benchmark/bugs.go) — against testdata/metrics_vocabulary.golden:
//   - the -metrics block of `part` 32 run with Workers: 2, Observe and an
//     event trace: its canonical snapshot, with every field Canonical drops
//     or folds set to a sentinel (so every gated block shows);
//   - the -metrics block and the /metrics exposition (families in order)
//     of a Metrics whose field i holds i+1, which pins each label and family
//     to its field;
//   - the json keys of a Metrics with every field set and of the zero value.
//
// `go test ./internal/benchlist -run TestMetricsVocabulary -update` rewrites
// the file.
func TestMetricsVocabulary(t *testing.T) {
	b := Find("part")
	r := core.New(b.Build(32, false), core.Options{Workers: 2, Observe: true, EventTrace: io.Discard}).Run()

	var distinct obs.Metrics
	sentinel := r.Metrics.Canonical()
	dv, sv := reflect.ValueOf(&distinct).Elem(), reflect.ValueOf(&sentinel).Elem()
	for i := 0; i < dv.NumField(); i++ {
		dv.Field(i).SetInt(int64(i + 1))
		var one obs.Metrics
		reflect.ValueOf(&one).Elem().Field(i).SetInt(1)
		if reflect.ValueOf(one.Canonical()).Field(i).Int() != 1 {
			sv.Field(i).SetInt(int64(1000 + i)) // dropped or folded by Canonical
		}
	}

	var out strings.Builder
	fmt.Fprintf(&out, "== -metrics, part 32, Workers: 2 (non-canonical fields = 1000+index)\n%s", report.Metrics(&sentinel))
	fmt.Fprintf(&out, "== -metrics, field i = i+1\n%s", report.Metrics(&distinct))

	reg := obs.NewRegistry(nil)
	reg.NewShard().Observe(obs.TimerReplay, 5)
	var prom bytes.Buffer
	if err := telemetry.WriteMetrics(&prom, telemetry.Series{Metrics: distinct, Hists: reg.Histograms()}); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "== /metrics, field i = i+1, one replay observation\n%s", prom.String())

	for _, m := range []struct {
		name string
		m    obs.Metrics
	}{{"every field set", distinct}, {"zero value", obs.Metrics{}}} {
		data, err := json.Marshal(m.m)
		if err != nil {
			t.Fatal(err)
		}
		var byKey map[string]int64
		if err := json.Unmarshal(data, &byKey); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(byKey))
		for k := range byKey {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&out, "== json keys, %s\n%s\n", m.name, strings.Join(keys, "\n"))
	}

	got := []byte(out.String())
	const path = "testdata/metrics_vocabulary.golden"
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v\ngot:\n%s", err, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("metric vocabulary drifted\ngot:\n%s\nwant:\n%s", got, want)
	}
}
