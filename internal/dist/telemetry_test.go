package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"jaaru/internal/conform"
	"jaaru/internal/core"
	"jaaru/internal/obs"
	"jaaru/internal/telemetry"
)

// scrape fetches one coordinator endpoint through the fabric and returns the
// raw body (unlike harness.rpc, which decodes JSON).
func (h *harness) scrape(path string) string {
	h.t.Helper()
	req, err := http.NewRequest(http.MethodGet, "http://coordinator"+path, nil)
	if err != nil {
		h.t.Fatal(err)
	}
	resp, err := h.fabric.Client("client").Do(req)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		h.t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		h.t.Fatalf("GET %s: HTTP %d: %s", path, resp.StatusCode, body)
	}
	return string(body)
}

func (h *harness) status() telemetry.Status {
	h.t.Helper()
	var st telemetry.Status
	if err := json.Unmarshal([]byte(h.scrape("/v1/status")), &st); err != nil {
		h.t.Fatalf("decode /v1/status: %v", err)
	}
	return st
}

// TestWorkerRPCLatencyHistogram: with a deterministic per-hop fabric delay
// and the fake clock driving the worker's RPC timing, every successful
// lease-claim and commit round trip costs exactly 2x the hop latency — so
// the worker's RPC histograms must put every observation in the single exact
// bucket for that duration. This is the injectable-latency acceptance test:
// it proves the timing path measures the transport, not scheduling noise.
func TestWorkerRPCLatencyHistogram(t *testing.T) {
	const hop = 5 * time.Millisecond
	h := newHarness(t)
	h.submit("tree", distOpts())
	h.fabric.SetLatency("w1", hop)

	reg := obs.NewRegistry(nil)
	w, err := NewWorker(WorkerConfig{
		Name:        "w1",
		BaseURL:     "http://coordinator",
		Client:      h.fabric.Client("w1"),
		Resolve:     testResolver,
		MaxRetries:  2,
		Backoff:     time.Microsecond,
		Sleep:       func(time.Duration) {},
		CommitEvery: 2,
		Registry:    reg,
		Now:         h.clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if w.Observability() != reg {
		t.Fatal("Observability() did not return the configured registry")
	}

	roundTrip := (2 * hop).Nanoseconds()
	wantBucket := obs.HistBucketIndex(roundTrip)
	hists := reg.Histograms()
	for _, timer := range []obs.Timer{obs.TimerLeaseClaim, obs.TimerLeaseCommit} {
		s := hists[timer]
		if s.Count == 0 {
			t.Fatalf("%s: no observations recorded", timer)
		}
		if s.Sum != s.Count*roundTrip {
			t.Errorf("%s: sum = %d, want %d x %dns", timer, s.Sum, s.Count, roundTrip)
		}
		for i, n := range s.Counts {
			if n != 0 && i != wantBucket {
				t.Errorf("%s: %d observations in bucket %d, want all %d in bucket %d",
					timer, n, i, s.Count, wantBucket)
			}
		}
		if wantBucket >= len(s.Counts) || s.Counts[wantBucket] != s.Count {
			t.Errorf("%s: exact bucket %d holds %v/%d observations",
				timer, wantBucket, bucketCount(s, wantBucket), s.Count)
		}
	}
	// Untimed phases must not leak into the worker-local registry: it holds
	// RPC latency only (exploration histograms travel in the commits).
	if n := hists[obs.TimerPreFailure].Count; n != 0 {
		t.Errorf("pre_failure observations in worker RPC registry: %d", n)
	}
}

func bucketCount(s obs.HistSnapshot, i int) int64 {
	if i < 0 || i >= len(s.Counts) {
		return 0
	}
	return s.Counts[i]
}

// probeSink drives a real lease through the commit protocol and runs a probe
// callback after the first non-final commit — while the lease is active and
// the job is demonstrably mid-run.
type probeSink struct {
	h      *harness
	lease  *Lease
	seq    int64
	probed bool
	probe  func()
}

func (s *probeSink) Hungry() bool   { return false }
func (s *probeSink) Stopped() bool  { return false }
func (s *probeSink) Draining() bool { return false }

func (s *probeSink) Commit(splits []core.WireClaim, residuals []core.WireClaim, delta *core.WireStats, final bool) error {
	s.seq++
	var resp CommitResponse
	code := s.h.rpc("POST", "/v1/leases/"+s.lease.ID+"/commit", &CommitRequest{
		Token: s.lease.Token, Seq: s.seq,
		Splits: splits, Residuals: residuals, Delta: delta, Final: final,
	}, &resp)
	if code != http.StatusOK {
		return fmt.Errorf("commit: HTTP %d", code)
	}
	if !final && !s.probed {
		s.probed = true
		s.probe()
	}
	return nil
}

// TestCoordinatorTelemetryMidRun is the curl-level acceptance test: while a
// lease is active (between two commits of a live run), GET /v1/status must
// report the job running with current scenario counts, a positive rate, an
// ETA, and phase-latency quantiles from the lease's last commit — and GET
// /metrics must serve parseable exposition carrying the same live counters.
// The telemetry reads must not perturb the run: the final merged result is
// still bit-identical to the serial reference.
func TestCoordinatorTelemetryMidRun(t *testing.T) {
	serial := serialReference(t, "tree", distOpts())
	h := newHarness(t)
	// Every RPC advances the fake clock by 2ms, so rates and ETAs are
	// positive and deterministic.
	h.fabric.SetLatency("client", time.Millisecond)
	id := h.submit("tree", distOpts())

	var grant LeaseResponse
	if code := h.rpc("POST", "/v1/lease", &LeaseRequest{Worker: "w1"}, &grant); code != http.StatusOK || grant.Status != StatusGranted {
		t.Fatalf("lease: HTTP %d status %q", code, grant.Status)
	}
	prog, err := testResolver(grant.Lease.Spec)
	if err != nil {
		t.Fatal(err)
	}
	lr := core.NewLeaseRunner(prog, grant.Lease.Opts)
	lr.SetCommitEvery(2)

	probed := false
	sink := &probeSink{h: h, lease: grant.Lease}
	sink.probe = func() {
		probed = true
		st := h.status()
		if st.Service != "jaaru-coordinator" || st.UptimeSec <= 0 {
			t.Errorf("status envelope = %q / %vs", st.Service, st.UptimeSec)
		}
		if len(st.Jobs) != 1 {
			t.Fatalf("status has %d jobs, want 1", len(st.Jobs))
		}
		js := st.Jobs[0]
		if js.ID != id || js.State != "running" {
			t.Errorf("mid-run job = %q state %q, want %q running", js.ID, js.State, id)
		}
		if js.Scenarios <= 0 || js.Scenarios >= int64(serial.Scenarios) {
			t.Errorf("mid-run scenarios = %d, want in (0, %d)", js.Scenarios, serial.Scenarios)
		}
		if js.ActiveLeases != 1 || js.Workers != 1 {
			t.Errorf("mid-run leases/workers = %d/%d, want 1/1", js.ActiveLeases, js.Workers)
		}
		if js.Goal <= 0 || js.Rate <= 0 || js.ETASec <= 0 {
			t.Errorf("mid-run goal/rate/eta = %d/%v/%v, want all positive", js.Goal, js.Rate, js.ETASec)
		}
		q, ok := js.Latency["pre_failure"]
		if !ok || q.Count <= 0 || q.P50Ns < 0 || q.MaxNs < q.P50Ns {
			t.Errorf("mid-run pre_failure quantiles = %+v (present %v)", q, ok)
		}

		// The same live view must be served as valid Prometheus exposition.
		samples, err := telemetry.ParseExposition(bytes.NewReader([]byte(h.scrape("/metrics"))))
		if err != nil {
			t.Fatalf("mid-run /metrics does not parse: %v", err)
		}
		var scen float64
		histBuckets := 0
		for _, s := range samples {
			if s.Name == "jaaru_scenarios" && s.Labels["job"] == id {
				scen = s.Value
			}
			if s.Name == "jaaru_phase_latency_ns_bucket" && s.Labels["timer"] == "pre_failure" {
				histBuckets++
			}
		}
		if int64(scen) != js.Scenarios {
			t.Errorf("/metrics scenarios = %v, /v1/status says %d", scen, js.Scenarios)
		}
		if histBuckets == 0 {
			t.Error("/metrics has no pre_failure latency buckets mid-run")
		}
	}

	if err := lr.RunLease(grant.Lease.Claims, sink); err != nil {
		t.Fatal(err)
	}
	if !probed {
		t.Fatal("probe never fired: lease finished without a non-final commit")
	}

	conform.Exact(t, "mid-run-telemetry", serialView(serial), h.result(id).view())
	st := h.status()
	if len(st.Jobs) != 1 || st.Jobs[0].State != "done" {
		t.Fatalf("post-run status = %+v, want one done job", st.Jobs)
	}
	if st.Jobs[0].Scenarios != int64(serial.Scenarios) {
		t.Errorf("post-run scenarios = %d, serial %d", st.Jobs[0].Scenarios, serial.Scenarios)
	}
	if st.Jobs[0].FrontierLen != 0 || st.Jobs[0].ActiveLeases != 0 {
		t.Errorf("post-run frontier/leases = %d/%d, want 0/0",
			st.Jobs[0].FrontierLen, st.Jobs[0].ActiveLeases)
	}
}

// TestScrapeSmoke boots the coordinator on a real ephemeral TCP port, runs a
// job through a worker over real HTTP, and validates a real scrape of
// /metrics and /v1/status — the end-to-end path a Prometheus server and
// `jaaru top` exercise in production. make scrape-smoke runs exactly this test.
func TestScrapeSmoke(t *testing.T) {
	coord, err := NewCoordinator(Config{Resolve: testResolver, ShutdownWhenDone: true})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback listener available: %v", err)
	}
	srv := &http.Server{Handler: coord}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	body, err := json.Marshal(JobRequest{Spec: ProgSpec{Bench: "bugs"}, Opts: distOpts()})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var jr JobResponse
	err = json.NewDecoder(resp.Body).Decode(&jr)
	resp.Body.Close()
	if err != nil || jr.ID == "" {
		t.Fatalf("submit over TCP: id %q err %v", jr.ID, err)
	}

	w, err := NewWorker(WorkerConfig{
		Name:        "w1",
		BaseURL:     base,
		Resolve:     testResolver,
		Backoff:     time.Millisecond,
		CommitEvery: 4,
		Registry:    obs.NewRegistry(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d err %v", path, resp.StatusCode, err)
		}
		return b
	}

	samples, err := telemetry.ParseExposition(bytes.NewReader(get("/metrics")))
	if err != nil {
		t.Fatalf("/metrics scrape does not parse: %v", err)
	}
	found := false
	for _, s := range samples {
		if s.Name == "jaaru_scenarios" && s.Labels["job"] == jr.ID && s.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no positive jaaru_scenarios{job=%q} sample in %d samples", jr.ID, len(samples))
	}

	var st telemetry.Status
	if err := json.Unmarshal(get("/v1/status"), &st); err != nil {
		t.Fatalf("decode /v1/status: %v", err)
	}
	if len(st.Jobs) != 1 || st.Jobs[0].State != "done" || st.Jobs[0].Bugs == 0 {
		t.Fatalf("status over TCP = %+v, want one done buggy job", st.Jobs)
	}
	// The worker's own registry recorded the real round trips.
	if w.Observability().Histograms()[obs.TimerLeaseClaim].Count == 0 {
		t.Error("worker recorded no lease_claim round trips over real HTTP")
	}
}
