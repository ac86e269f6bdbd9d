package telemetry

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"

	"jaaru/internal/obs"
)

func sampleHists() obs.HistVec {
	r := obs.NewRegistry(nil)
	c := r.NewShard()
	for i := int64(1); i <= 100; i++ {
		c.Observe(obs.TimerPreFailure, i*1000)
	}
	c.Observe(obs.TimerLeaseClaim, 2_000_000)
	return r.Histograms()
}

// The writer's output must round-trip through the strict parser, carry every
// Metrics field as a jaaru_-prefixed family, and emit coherent histograms.
func TestWriteMetricsRoundTrip(t *testing.T) {
	m := obs.Metrics{Scenarios: 42, Executions: 85, Steps: 9000, PreFailureNs: 123}
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, Series{Metrics: m, Hists: sampleHists()}); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseExposition(&buf)
	if err != nil {
		t.Fatalf("parse own output: %v\n%s", err, buf.String())
	}
	byName := map[string]float64{}
	for _, s := range samples {
		if len(s.Labels) == 0 {
			byName[s.Name] = s.Value
		}
	}
	if byName["jaaru_scenarios"] != 42 || byName["jaaru_steps"] != 9000 ||
		byName["jaaru_pre_failure_ns"] != 123 {
		t.Fatalf("scalar families wrong: %v", byName)
	}

	var bucketSamples, sum, count int
	for _, s := range samples {
		if s.Labels["timer"] != "pre_failure" {
			continue
		}
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			bucketSamples++
		case strings.HasSuffix(s.Name, "_sum"):
			sum++
			if s.Value != 100*101/2*1000 {
				t.Errorf("histogram sum = %v", s.Value)
			}
		case strings.HasSuffix(s.Name, "_count"):
			count++
			if s.Value != 100 {
				t.Errorf("histogram count = %v", s.Value)
			}
		}
	}
	if bucketSamples == 0 || sum != 1 || count != 1 {
		t.Fatalf("histogram exposition incomplete: %d buckets, %d sum, %d count",
			bucketSamples, sum, count)
	}
}

// Per-job labels: families must appear once with one sample per series, so a
// multi-job coordinator scrape stays valid exposition.
func TestWriteMetricsMultiSeries(t *testing.T) {
	var buf bytes.Buffer
	err := WriteMetrics(&buf,
		Series{Labels: []Label{{"job", "j1"}}, Metrics: obs.Metrics{Scenarios: 1}},
		Series{Labels: []Label{{"job", "j2"}}, Metrics: obs.Metrics{Scenarios: 2}},
	)
	if err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	samples, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	got := map[string]float64{}
	for _, s := range samples {
		if s.Name == "jaaru_scenarios" {
			got[s.Labels["job"]] = s.Value
		}
	}
	if got["j1"] != 1 || got["j2"] != 2 {
		t.Fatalf("per-job samples wrong: %v", got)
	}
	if n := strings.Count(text, "# TYPE jaaru_scenarios "); n != 1 {
		t.Fatalf("TYPE line emitted %d times, want 1", n)
	}
}

func TestParserRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"bad name":            "0bad 1\n",
		"no value":            "jaaru_x\n",
		"bad value":           "jaaru_x hello\n",
		"unterminated labels": "jaaru_x{a=\"1\" 1\n",
		"unquoted label":      "jaaru_x{a=1} 1\n",
		"duplicate sample":    "jaaru_x 1\njaaru_x 2\n",
		"duplicate TYPE":      "# TYPE jaaru_x gauge\n# TYPE jaaru_x gauge\njaaru_x 1\n",
		"unknown type":        "# TYPE jaaru_x widget\njaaru_x 1\n",
		"TYPE after samples":  "jaaru_x 1\n# TYPE jaaru_x gauge\n",
		"hist no +Inf":        "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"hist count mismatch": "# TYPE h histogram\nh_bucket{le=\"1\"} 1\n" +
			"h_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 2\n",
		"hist not cumulative": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\n" +
			"h_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"hist missing sum": "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
	}
	for name, body := range cases {
		if _, err := ParseExposition(strings.NewReader(body)); err == nil {
			t.Errorf("%s: accepted:\n%s", name, body)
		}
	}

	good := "# HELP jaaru_x help text here\n# TYPE jaaru_x gauge\n" +
		"jaaru_x{a=\"v\\\"q\\\\z\",b=\"2\"} 3.5 1700000000\n"
	samples, err := ParseExposition(strings.NewReader(good))
	if err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}
	if len(samples) != 1 || samples[0].Labels["a"] != `v"q\z` {
		t.Fatalf("parsed = %+v", samples)
	}
}

func TestQuantilesAndETA(t *testing.T) {
	v := sampleHists()
	lat := LatencyMap(v)
	q, ok := lat["pre_failure"]
	if !ok {
		t.Fatal("pre_failure missing from latency map")
	}
	if q.Count != 100 || q.MeanNs != 50500 {
		t.Fatalf("count/mean = %d/%d", q.Count, q.MeanNs)
	}
	if q.P50Ns < 50000 || float64(q.P50Ns) > 50000*1.07 {
		t.Fatalf("p50 = %d", q.P50Ns)
	}
	if q.MaxNs < 100000 {
		t.Fatalf("max = %d", q.MaxNs)
	}
	if _, ok := lat["post_failure"]; ok {
		t.Fatal("empty timer leaked into latency map")
	}

	if eta := ETASec(50, 100, 25); eta != 2 {
		t.Fatalf("ETASec = %v, want 2", eta)
	}
	for _, bad := range []float64{ETASec(100, 100, 25), ETASec(50, 0, 25), ETASec(50, 100, 0)} {
		if bad != 0 {
			t.Fatalf("ETASec should be 0 when unknown, got %v", bad)
		}
	}
}

// Before any scenario has run, a standalone checker's /v1/status row and
// /metrics scrape both serve zero executions, as a nil registry does.
func TestEmptyRegistryServesNoExecutions(t *testing.T) {
	reg := obs.NewRegistry(nil)
	if job := RegistryJob("run", reg); job.Executions != 0 {
		t.Errorf("/v1/status executions = %d before any scenario, want 0", job.Executions)
	}
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, Series{Metrics: reg.Snapshot(), Hists: reg.Histograms()}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\njaaru_executions 0\n") {
		t.Errorf("/metrics before any scenario:\n%s", buf.String())
	}
}

// Snapshots and scrapes read the shards and the driver signals while the
// workers and the driver write them (run under -race by `make race`).
func TestScrapeWhileWriting(t *testing.T) {
	reg := obs.NewRegistry(io.Discard)
	var wg sync.WaitGroup
	for range 2 {
		c := reg.NewShard()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2000 {
				c.Inc(obs.Scenarios)
				c.Add(obs.Steps, 3)
				c.NotePeak(obs.PeakSB, int64(i))
				c.Observe(obs.TimerReplay, int64(i))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range 2000 {
			reg.SetWorkers(2)
			reg.NotePush(2, i)
			reg.NoteClaim(i)
			reg.NoteDonation(1)
			reg.NoteLease()
			reg.NoteLeaseExpired(i%2 == 0)
			reg.NoteRPC()
			reg.NoteBytes(10, 20)
			reg.NoteCommitBatch(4)
			reg.Emit("tick", "i", i)
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for live := true; live; {
		select {
		case <-done:
			live = false
		default:
		}
		m := reg.Snapshot()
		var buf bytes.Buffer
		if err := WriteMetrics(&buf, Series{Metrics: m, Hists: reg.Histograms()}); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseExposition(&buf); err != nil {
			t.Fatalf("scrape mid-run: %v", err)
		}
		if m.Steps > 3*2*2000 {
			t.Fatalf("implausible mid-run snapshot: %+v", m)
		}
	}
	m := reg.Snapshot()
	if m.Scenarios != 4000 || m.Steps != 12000 || m.MaxSBOccupancy != 1999 ||
		m.FrontierPushed != 4000 || m.MaxFrontierLen != 1999 || m.LeaseRequeues != 1000 ||
		m.BytesRx != 40000 || m.CommitBatchSize != 4 || m.Events != 2000 {
		t.Errorf("final snapshot: %+v", m)
	}
}
