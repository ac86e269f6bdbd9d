package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"jaaru/internal/core"
	"jaaru/internal/dist"
	"jaaru/internal/telemetry"
)

var (
	serverUp = regexp.MustCompile(`jaaru-server: listening on (\S+)\n`)
	workerUp = regexp.MustCompile(`telemetry on (http://\S+)\n`)
)

// pollEvery is the job-status poll interval of the one client.
const pollEvery = 10 * time.Millisecond

// httpc talks to loopback only; no proxy, and a bound on every call so a hung
// coordinator fails the repetition instead of the benchmark.
var httpc = &http.Client{Transport: &http.Transport{}, Timeout: 10 * time.Second}

func getJSON(url string, into any) error {
	resp, err := httpc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// startCoordinator boots jaaru-server on an ephemeral loopback port and
// returns once it announced its address.
func (h *harness) startCoordinator() (*daemon, string, error) {
	d, addr, err := startDaemon(serverUp, filepath.Join(h.binDir, "jaaru-server"), "-addr", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return d, "http://" + addr, nil
}

// fleetRep runs one job through a fresh coordinator and w.workers worker
// processes. The verdict time runs from POST /v1/jobs until GET /v1/jobs/{id}
// says done; the workers are launched right after the submit, as in the README
// quickstart. A traced repetition submits with Observe set, gives the workers a
// telemetry listener, and scrapes everything before tearing the fleet down.
func (h *harness) fleetRep(w *workload, traced bool, parent, idx int) (r rep) {
	fail := func(format string, args ...any) rep {
		r.fail = fmt.Sprintf(format, args...)
		return r
	}
	sp := h.tr.begin("fleet.server_up", parent, idx)
	srv, base, err := h.startCoordinator()
	h.tr.end(sp)
	if err != nil {
		return fail("coordinator: %v", err)
	}
	var workers []*daemon
	// Teardown also runs on the failure paths, so no child outlives the rep.
	// Workers go first: one that loses its coordinator exits with an error.
	defer func() {
		r.procs = make([]usage, 1, 1+len(workers)) // coordinator first
		for _, d := range append(workers, srv) {
			u, err := d.stop()
			if err != nil && r.fail == "" {
				r.fail = fmt.Sprintf("%s: %v", filepath.Base(d.cmd.Path), err)
			}
			if d == srv {
				r.procs[0] = u
			} else {
				r.procs = append(r.procs, u)
			}
			r.cpu += u.cpu
			r.rssMB += u.rssMB
		}
	}()

	body, _ := json.Marshal(dist.JobRequest{
		Spec: dist.ProgSpec{Bench: w.bench, N: w.n[h.tier]},
		Opts: core.Options{Observe: traced},
	})
	spRun := h.tr.begin("fleet.submit_to_done", parent, idx)
	start := time.Now()
	spSubmit := h.tr.begin("fleet.submit", spRun, idx)
	resp, err := httpc.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return fail("submit: %v", err)
	}
	var job dist.JobResponse
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	h.tr.end(spSubmit)
	if err != nil || job.ID == "" {
		return fail("submit: status %s, decode: %v", resp.Status, err)
	}
	ownRPCs := 1 // the harness's own job-API calls, subtracted from dist.rpcs_per_scenario

	var workerURLs []string
	for i := 0; i < w.workers; i++ {
		args := []string{"-coordinator", base, "-name", fmt.Sprintf("w%d", i+1)}
		announce := (*regexp.Regexp)(nil)
		if traced {
			args = append(args, "-listen", "127.0.0.1:0")
			announce = workerUp
		}
		d, url, err := startDaemon(announce, filepath.Join(h.binDir, "jaaru-worker"), args...)
		if err != nil {
			return fail("worker %d: %v", i+1, err)
		}
		workers = append(workers, d)
		workerURLs = append(workerURLs, url)
	}

	spLease := 0
	if traced {
		spLease = h.tr.begin("fleet.until_first_lease", spRun, idx)
	}
	var st dist.JobStatus
	for st.State != dist.JobDone {
		if time.Since(start) > repTimeout {
			return fail("job not done after %v", repTimeout)
		}
		time.Sleep(pollEvery)
		if spLease != 0 {
			var fs telemetry.Status
			if getJSON(base+"/v1/status", &fs) == nil && len(fs.Jobs) > 0 && fs.Jobs[0].ActiveLeases > 0 {
				h.tr.end(spLease)
				spLease = 0
			}
		}
		st = dist.JobStatus{}
		if err := getJSON(base+"/v1/jobs/"+job.ID, &st); err != nil {
			return fail("poll: %v", err)
		}
		ownRPCs++
	}
	r.wall = time.Since(start)
	h.tr.end(spRun)
	if spLease != 0 {
		h.tr.end(spLease)
	}

	if st.Result == nil {
		return fail("job done without a result")
	}
	r.steps = st.Result.Steps
	if got := verdictOf(st.Result); got != w.want[h.tier] {
		r.fail = fmt.Sprintf("verdict %+v, pinned %+v", got, w.want[h.tier])
	}
	if traced {
		spScrape := h.tr.begin("fleet.scrape", parent, idx)
		r.counts, err = h.scrapeFleet(base, job.ID, workerURLs, st.Result, ownRPCs)
		h.tr.end(spScrape)
		if err != nil && r.fail == "" {
			r.fail = "scrape: " + err.Error()
		}
	}
	return r
}

// scrapeFleet reads the finished job's counters the way an operator would:
// the coordinator's /metrics through telemetry's exposition parser, and each
// worker's /metrics for the RPC round-trip histograms only workers keep.
func (h *harness) scrapeFleet(base, jobID string, workerURLs []string, res *core.Result, ownRPCs int) (map[string]float64, error) {
	counts := map[string]float64{"core.failure_points": float64(res.FailurePoints)}

	t0 := time.Now()
	samples, err := scrape(base + "/metrics")
	counts["telemetry.scrape_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		return counts, err
	}
	var rpcs, wire float64
	for _, s := range samples {
		if s.Labels["job"] != jobID {
			continue
		}
		switch s.Name {
		case "jaaru_rpcs":
			rpcs = s.Value
		case "jaaru_bytes_tx", "jaaru_bytes_rx":
			wire += s.Value
		}
		if name, ok := obsCounters[strings.TrimPrefix(s.Name, "jaaru_")]; ok {
			counts[name] = s.Value
		}
	}
	counts["dist.wire_bytes"] = wire
	if res.Scenarios > 0 {
		counts["dist.rpcs_per_scenario"] = (rpcs - float64(ownRPCs)) / float64(res.Scenarios)
	}

	// Only the workers time their RPC round trips. The slowest worker's
	// median is the one a lease waits for.
	for _, url := range workerURLs {
		ws, err := scrape(url + "/metrics")
		if err != nil {
			return counts, err
		}
		counts["dist.lease_rpc_p50_us"] = max(counts["dist.lease_rpc_p50_us"], histP50(ws, "lease_claim")/1e3)
		counts["dist.commit_rpc_p50_us"] = max(counts["dist.commit_rpc_p50_us"], histP50(ws, "lease_commit")/1e3)
	}
	return counts, nil
}

// scrape GETs one Prometheus endpoint and parses it with telemetry's strict
// exposition parser, so a malformed scrape fails the traced repetition.
func scrape(url string) ([]telemetry.Sample, error) {
	resp, err := httpc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	samples, err := telemetry.ParseExposition(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", url, err)
	}
	return samples, nil
}

// histP50 reads the median off one timer's cumulative latency buckets: the
// upper bound, in ns, of the first bucket holding half the observations.
func histP50(samples []telemetry.Sample, timer string) float64 {
	var total float64
	for _, s := range samples {
		if s.Name == "jaaru_phase_latency_ns_count" && s.Labels["timer"] == timer {
			total = s.Value
		}
	}
	for _, s := range samples {
		if s.Name != "jaaru_phase_latency_ns_bucket" || s.Labels["timer"] != timer || s.Labels["le"] == "+Inf" {
			continue
		}
		if 2*s.Value >= total {
			le, _ := strconv.ParseFloat(s.Labels["le"], 64)
			return le
		}
	}
	return 0
}
