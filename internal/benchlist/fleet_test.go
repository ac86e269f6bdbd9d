package benchlist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"jaaru/internal/core"
	"jaaru/internal/dist"
	"jaaru/internal/netsim"
)

// fleetOfTwo explores spec through a coordinator and two workers over the
// netsim fabric — leases, range donations, parked lease requests, MergeAcc —
// and returns the merged result as a client reads it off the job API. With
// killFirst, w1 claims the root lease alone, commits after every scenario and
// dies after four requests (the grant plus three commits); the coordinator's
// clock then passes the 30 s lease TTL, so w2 finds the residual requeued and
// explores it. The result must show that requeue.
func fleetOfTwo(t *testing.T, resolve dist.Resolver, spec dist.ProgSpec, opts core.Options, killFirst bool) *core.Result {
	t.Helper()
	clock := netsim.NewClock()
	coord, err := dist.NewCoordinator(dist.Config{
		Resolve: resolve, Now: clock.Now, ShutdownWhenDone: true, LeaseTTL: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	fabric := netsim.NewFabric(coord)
	rpc := func(method, path string, body, out any) {
		t.Helper()
		payload, _ := json.Marshal(body)
		req, _ := http.NewRequest(method, "http://coordinator"+path, bytes.NewReader(payload))
		resp, err := fabric.Client("client").Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: HTTP %d, %v", method, path, resp.StatusCode, err)
		}
	}
	worker := func(name string, commitEvery int) *dist.Worker {
		w, err := dist.NewWorker(dist.WorkerConfig{
			Name:        name,
			BaseURL:     "http://coordinator",
			Client:      fabric.Client(name),
			Resolve:     resolve,
			MaxRetries:  2,
			Sleep:       func(time.Duration) {},
			CommitEvery: commitEvery,
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	var job dist.JobResponse
	rpc("POST", "/v1/jobs", dist.JobRequest{Spec: spec, Opts: opts}, &job)

	names := []string{"w1", "w2"}
	if killFirst {
		doomed := worker("w1", 1)
		fabric.KillAfter("w1", 4)
		if err := doomed.Run(); err == nil {
			t.Fatalf("%v: w1 finished within its kill budget; nothing was left mid-lease", spec)
		}
		clock.Advance(61 * time.Second) // past the lease TTL
		names = names[1:]
	}
	var wg sync.WaitGroup
	errs := make([]error, len(names))
	for n, name := range names {
		w := worker(name, 0)
		wg.Add(1)
		go func() { defer wg.Done(); errs[n] = w.Run() }()
	}
	wg.Wait()
	for n, err := range errs {
		if err != nil {
			t.Fatalf("%v: %s: %v", spec, names[n], err)
		}
	}
	var st dist.JobStatus
	rpc("GET", "/v1/jobs/"+job.ID, nil, &st)
	if st.State != dist.JobDone {
		t.Fatalf("%v: job %s after the fleet shut down", spec, st.State)
	}
	if killFirst && (st.Result.Metrics == nil || st.Result.Metrics.LeaseRequeues < 1) {
		t.Fatalf("%v: no requeue recorded for the killed worker's lease", spec)
	}
	return st.Result
}

// TestSeededBugsFleetOfTwo: each of the 25 seeded Figure 12/13 programs,
// explored in full by a fleet of two, reports exactly the serial run's bugs
// (type, message, count, canonical choices) and counts. TestTraceGolden pins
// the same reports for serial and Workers: 4.
func TestSeededBugsFleetOfTwo(t *testing.T) {
	progs := seededPrograms()
	resolve := func(spec dist.ProgSpec) (core.Program, error) {
		if spec.N < 0 || spec.N >= len(progs) {
			return core.Program{}, fmt.Errorf("no seeded program %d", spec.N)
		}
		return progs[spec.N](), nil
	}
	opts := core.Options{MaxSteps: 2_000}
	for i := range progs {
		serial := core.New(progs[i](), opts).Run()
		if !serial.Buggy() {
			t.Fatalf("%s: the serial run finds no bug", serial.Program)
		}
		got := fleetOfTwo(t, resolve, dist.ProgSpec{Bench: "seeded", N: i}, opts, false)
		assertChoiceSnapEquivalent(t, serial.Program+" fleet of 2", serial, got)
	}
}
