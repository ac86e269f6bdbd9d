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

// TestSeededBugsFleetOfTwo: each of the 25 seeded Figure 12/13 programs,
// explored in full by a coordinator and two workers over the netsim fabric —
// leases, range donations, parked lease requests, MergeAcc — reports exactly
// the serial run's bugs (type, message, count, canonical choices) and counts.
// TestTraceGolden pins the same reports for serial and Workers: 4.
func TestSeededBugsFleetOfTwo(t *testing.T) {
	progs := seededPrograms()
	resolve := func(spec dist.ProgSpec) (core.Program, error) {
		if spec.N < 0 || spec.N >= len(progs) {
			return core.Program{}, fmt.Errorf("no seeded program %d", spec.N)
		}
		return progs[spec.N](), nil
	}
	opts := core.Options{MaxSteps: 2_000, HeartbeatMs: -1}
	for i := range progs {
		serial := core.New(progs[i](), opts).Run()
		if !serial.Buggy() {
			t.Fatalf("%s: the serial run finds no bug", serial.Program)
		}
		coord, err := dist.NewCoordinator(dist.Config{Resolve: resolve, ShutdownWhenDone: true})
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
		var job dist.JobResponse
		rpc("POST", "/v1/jobs", dist.JobRequest{Spec: dist.ProgSpec{Bench: "seeded", N: i}, Opts: opts}, &job)

		var wg sync.WaitGroup
		errs := make([]error, 2)
		for n := range errs {
			w, err := dist.NewWorker(dist.WorkerConfig{
				Name:       fmt.Sprintf("w%d", n+1),
				BaseURL:    "http://coordinator",
				Client:     fabric.Client(fmt.Sprintf("w%d", n+1)),
				Resolve:    resolve,
				MaxRetries: 2,
				Sleep:      func(time.Duration) {},
			})
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() { defer wg.Done(); errs[n] = w.Run() }()
		}
		wg.Wait()
		for n, err := range errs {
			if err != nil {
				t.Fatalf("%s: worker %d: %v", serial.Program, n+1, err)
			}
		}
		var st dist.JobStatus
		rpc("GET", "/v1/jobs/"+job.ID, nil, &st)
		if st.State != dist.JobDone {
			t.Fatalf("%s: job %s after the fleet shut down", serial.Program, st.State)
		}
		assertChoiceSnapEquivalent(t, serial.Program+" fleet of 2", serial, st.Result)
	}
}
