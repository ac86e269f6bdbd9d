package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"jaaru/internal/core"
	"jaaru/internal/netsim"
)

// ---- test workloads ---------------------------------------------------------

// distTreeProgram is a quiet workload with real width at several depths:
// four independently flushed lines, two stores each, giving a few dozen
// scenarios with multi-candidate loads.
func distTreeProgram() core.Program {
	return core.Program{
		Name: "dist-tree",
		Run: func(c *core.Context) {
			r := c.Root()
			for i := uint64(0); i < 4; i++ {
				c.Store64(r.Add(i*8), i+1)
				c.Store64(r.Add(i*8), i+100)
				c.Clflush(r.Add(i*8), 8)
			}
		},
		Recover: func(c *core.Context) {
			r := c.Root()
			for i := uint64(0); i < 4; i++ {
				_ = c.Load64(r.Add(i * 8))
			}
		},
	}
}

// distBuggyProgram is the tree workload with recovery invariants that fire
// in several of its reachable crash states: a torn first line (only the
// first of its two stores persisted) and recovery observing line 1's final
// value while line 2 is still empty. Two distinct bugs, one with Count > 1.
func distBuggyProgram() core.Program {
	return core.Program{
		Name: "dist-bugs",
		Run: func(c *core.Context) {
			r := c.Root()
			for i := uint64(0); i < 4; i++ {
				c.Store64(r.Add(i*64), i+1)
				c.Store64(r.Add(i*64), i+101)
				c.Clflush(r.Add(i*64), 8)
			}
		},
		Recover: func(c *core.Context) {
			r := c.Root()
			var v [4]uint64
			for i := uint64(0); i < 4; i++ {
				v[i] = c.Load64(r.Add(i * 64))
			}
			if v[0] == 1 {
				c.Bug("line 0 recovered its torn intermediate value")
			}
			if v[1] == 102 && v[2] == 0 {
				c.Bug("line 1 complete while line 2 empty")
			}
		},
	}
}

func testResolver(spec ProgSpec) (core.Program, error) {
	switch spec.Bench {
	case "tree":
		return distTreeProgram(), nil
	case "bugs":
		return distBuggyProgram(), nil
	}
	return core.Program{}, fmt.Errorf("unknown bench %q", spec.Bench)
}

// ---- harness ----------------------------------------------------------------

type harness struct {
	t      *testing.T
	coord  *Coordinator
	fabric *netsim.Fabric
	clock  *netsim.Clock
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	clock := netsim.NewClock()
	coord, err := NewCoordinator(Config{
		Resolve:          testResolver,
		Now:              clock.Now,
		ShutdownWhenDone: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	fabric := netsim.NewFabric(coord)
	fabric.SetClock(clock)
	return &harness{t: t, coord: coord, fabric: fabric, clock: clock}
}

// rpc drives the job API through the fabric, as an external client would.
func (h *harness) rpc(method, path string, body, out any) int {
	h.t.Helper()
	var payload []byte
	if body != nil {
		var err error
		payload, err = json.Marshal(body)
		if err != nil {
			h.t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, "http://coordinator"+path, bytes.NewReader(payload))
	if err != nil {
		h.t.Fatal(err)
	}
	resp, err := h.fabric.Client("client").Do(req)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			h.t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func (h *harness) submit(bench string, opts core.Options) string {
	h.t.Helper()
	var resp JobResponse
	code := h.rpc("POST", "/v1/jobs", JobRequest{Spec: ProgSpec{Bench: bench}, Opts: opts}, &resp)
	if code != http.StatusOK {
		h.t.Fatalf("submit: HTTP %d", code)
	}
	return resp.ID
}

// servedResult is a finished job's result as an external client reads it off
// the job API: the Result a Go client decodes through JobStatus, plus the
// trace each bug carries in the served JSON (Traces[i] belongs to Bugs[i]).
type servedResult struct {
	*core.Result
	Traces [][]core.TraceOp
}

func (h *harness) result(id string) *servedResult {
	h.t.Helper()
	var raw json.RawMessage
	code := h.rpc("GET", "/v1/jobs/"+id, nil, &raw)
	if code != http.StatusOK {
		h.t.Fatalf("job status: HTTP %d", code)
	}
	var st JobStatus
	var traced struct {
		Result struct {
			Bugs []struct{ Trace []core.TraceOp }
		} `json:"result"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		h.t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &traced); err != nil {
		h.t.Fatal(err)
	}
	if st.State != JobDone {
		h.t.Fatalf("job %s not done (state %q)", id, st.State)
	}
	res := &servedResult{Result: st.Result}
	for _, b := range traced.Result.Bugs {
		res.Traces = append(res.Traces, b.Trace)
	}
	return res
}

func (h *harness) worker(name string, commitEvery int) *Worker {
	h.t.Helper()
	w, err := NewWorker(WorkerConfig{
		Name:        name,
		BaseURL:     "http://coordinator",
		Client:      h.fabric.Client(name),
		Resolve:     testResolver,
		MaxRetries:  2,
		Backoff:     time.Microsecond,
		Sleep:       func(time.Duration) {}, // deterministic, no real waiting
		CommitEvery: commitEvery,
	})
	if err != nil {
		h.t.Fatal(err)
	}
	return w
}

// runWorkers runs the named workers concurrently until each exits, and
// reports their errors.
func runWorkers(ws ...*Worker) []error {
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.Run()
		}()
	}
	wg.Wait()
	return errs
}

// assertSameResult is the distributed-equivalence gate: everything except
// wall-clock Duration and the partition-local BugReport.Scenario index must
// be identical to the serial reference (the same standard the in-process
// parallel suite enforces; Scenario is a worker-local discovery index even
// under Workers>1). Bug traces are compared through the HTTP round trip: the
// serial report's replayed trace against the one the job's JSON carried.
func assertSameResult(t *testing.T, label string, serial *core.Result, got *servedResult) {
	t.Helper()
	if got.Program != serial.Program {
		t.Errorf("%s: Program = %q, serial %q", label, got.Program, serial.Program)
	}
	if got.Scenarios != serial.Scenarios {
		t.Errorf("%s: Scenarios = %d, serial %d", label, got.Scenarios, serial.Scenarios)
	}
	if got.Executions != serial.Executions {
		t.Errorf("%s: Executions = %d, serial %d", label, got.Executions, serial.Executions)
	}
	if got.FailurePoints != serial.FailurePoints {
		t.Errorf("%s: FailurePoints = %d, serial %d", label, got.FailurePoints, serial.FailurePoints)
	}
	if got.Steps != serial.Steps {
		t.Errorf("%s: Steps = %d, serial %d", label, got.Steps, serial.Steps)
	}
	if got.RFChoicePoints != serial.RFChoicePoints {
		t.Errorf("%s: RFChoicePoints = %d, serial %d", label, got.RFChoicePoints, serial.RFChoicePoints)
	}
	if got.FailDecisionPoints != serial.FailDecisionPoints {
		t.Errorf("%s: FailDecisionPoints = %d, serial %d", label, got.FailDecisionPoints, serial.FailDecisionPoints)
	}
	if got.MaxRFCandidates != serial.MaxRFCandidates {
		t.Errorf("%s: MaxRFCandidates = %d, serial %d", label, got.MaxRFCandidates, serial.MaxRFCandidates)
	}
	if got.Complete != serial.Complete {
		t.Errorf("%s: Complete = %v, serial %v", label, got.Complete, serial.Complete)
	}
	if len(got.Bugs) != len(serial.Bugs) || len(got.Traces) != len(serial.Bugs) {
		t.Fatalf("%s: %d bugs with %d traces, serial %d", label, len(got.Bugs), len(got.Traces), len(serial.Bugs))
	}
	for i := range serial.Bugs {
		s, g := serial.Bugs[i], got.Bugs[i]
		if g.Type != s.Type || g.Message != s.Message || g.Execution != s.Execution ||
			g.Count != s.Count || g.Choices != s.Choices {
			t.Errorf("%s: bug %d differs:\nserial: %v (count %d, choices %q)\ngot:    %v (count %d, choices %q)",
				label, i, s, s.Count, s.Choices, g, g.Count, g.Choices)
		}
		if st, gt := s.Trace(jobTraceLen), got.Traces[i]; len(st) == 0 || !reflect.DeepEqual(st, gt) {
			t.Errorf("%s: bug %d trace differs (%d ops vs %d)", label, i, len(st), len(gt))
		}
	}
	if !reflect.DeepEqual(derefMultiRF(serial.MultiRF), derefMultiRF(got.MultiRF)) {
		t.Errorf("%s: MultiRF differs:\nserial: %v\ngot:    %v", label, serial.MultiRF, got.MultiRF)
	}
	if !reflect.DeepEqual(derefPerf(serial.PerfIssues), derefPerf(got.PerfIssues)) {
		t.Errorf("%s: PerfIssues differ:\nserial: %v\ngot:    %v", label, serial.PerfIssues, got.PerfIssues)
	}
	if (serial.Metrics == nil) != (got.Metrics == nil) {
		t.Fatalf("%s: metrics presence differs", label)
	}
	if serial.Metrics != nil {
		sc, gc := serial.Metrics.Canonical(), got.Metrics.Canonical()
		if sc != gc {
			t.Errorf("%s: canonical metrics differ:\nserial: %+v\ngot:    %+v", label, sc, gc)
		}
	}
}

func derefMultiRF(ms []*core.MultiRF) []core.MultiRF {
	out := make([]core.MultiRF, len(ms))
	for i, m := range ms {
		out[i] = *m
	}
	return out
}

func derefPerf(ps []*core.PerfIssue) []core.PerfIssue {
	out := make([]core.PerfIssue, len(ps))
	for i, p := range ps {
		out[i] = *p
	}
	return out
}

func distOpts() core.Options {
	return core.Options{
		Observe:        true,
		FlagMultiRF:    true,
		FlagPerfIssues: true,
		LeaseTTLMs:     60000,
		HeartbeatMs:    -1, // commits renew; keeps the tests clock-driven
	}
}

func serialReference(t *testing.T, bench string, opts core.Options) *core.Result {
	t.Helper()
	prog, err := testResolver(ProgSpec{Bench: bench})
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 1
	return core.New(prog, opts).Run()
}

// ---- tests ------------------------------------------------------------------

// TestDistributedMatchesSerial: a healthy 3-worker fleet over the fabric
// merges to the serial reference exactly.
func TestDistributedMatchesSerial(t *testing.T) {
	for _, bench := range []string{"tree", "bugs"} {
		t.Run(bench, func(t *testing.T) {
			serial := serialReference(t, bench, distOpts())
			h := newHarness(t)
			id := h.submit(bench, distOpts())
			errs := runWorkers(h.worker("w1", 4), h.worker("w2", 4), h.worker("w3", 4))
			for i, err := range errs {
				if err != nil {
					t.Fatalf("worker %d: %v", i+1, err)
				}
			}
			assertSameResult(t, bench, serial, h.result(id))
		})
	}
}

// TestDistributedWorkerKilledMidLease is the robustness acceptance gate:
// worker w3 claims the root lease, commits a few scenarios, and dies. After
// its TTL expires the residual subtree is requeued and re-executed by the
// surviving workers; the merged result must still be bit-identical to the
// serial reference.
func TestDistributedWorkerKilledMidLease(t *testing.T) {
	for _, bench := range []string{"tree", "bugs"} {
		t.Run(bench, func(t *testing.T) {
			serial := serialReference(t, bench, distOpts())
			h := newHarness(t)
			id := h.submit(bench, distOpts())

			// w3 claims the root (the whole tree), commits after every
			// scenario, and is killed after 4 successful requests: one lease
			// grant plus three non-final commits.
			w3 := h.worker("w3", 1)
			h.fabric.KillAfter("w3", 4)
			if err := w3.Run(); err == nil {
				t.Fatal("killed worker exited cleanly; expected transport failure")
			}

			// Nothing is claimable until the dead worker's lease expires.
			h.clock.Advance(61 * time.Second)

			errs := runWorkers(h.worker("w1", 4), h.worker("w2", 4))
			for i, err := range errs {
				if err != nil {
					t.Fatalf("worker %d: %v", i+1, err)
				}
			}
			res := h.result(id)
			assertSameResult(t, bench, serial, res)
			if res.Metrics.LeaseRequeues < 1 {
				t.Errorf("LeaseRequeues = %d, want >= 1 (the killed worker's subtree)", res.Metrics.LeaseRequeues)
			}
			if res.Metrics.LeasesExpired < 1 {
				t.Errorf("LeasesExpired = %d, want >= 1", res.Metrics.LeasesExpired)
			}
		})
	}
}

// TestChoiceSnapshotEquivalenceKilledWorker crosses the snapshot stack with
// distribution and fault injection: the serial reference is the replay
// oracle (Snapshots: -1), the fleet runs with the stack enabled, the
// root-lease worker is killed mid-lease so its residual is requeued after
// TTL expiry — and the merged result must still be bit-identical, canonical
// metrics included.
func TestChoiceSnapshotEquivalenceKilledWorker(t *testing.T) {
	for _, bench := range []string{"tree", "bugs"} {
		t.Run(bench, func(t *testing.T) {
			refOpts := distOpts()
			refOpts.Snapshots = -1
			serial := serialReference(t, bench, refOpts)

			h := newHarness(t)
			id := h.submit(bench, distOpts())

			w3 := h.worker("w3", 1)
			h.fabric.KillAfter("w3", 4)
			if err := w3.Run(); err == nil {
				t.Fatal("killed worker exited cleanly; expected transport failure")
			}
			h.clock.Advance(61 * time.Second)

			errs := runWorkers(h.worker("w1", 4), h.worker("w2", 4))
			for i, err := range errs {
				if err != nil {
					t.Fatalf("worker %d: %v", i+1, err)
				}
			}
			res := h.result(id)
			assertSameResult(t, bench, serial, res)
			if res.Metrics.LeaseRequeues < 1 {
				t.Errorf("LeaseRequeues = %d, want >= 1 (the killed worker's subtree)", res.Metrics.LeaseRequeues)
			}
		})
	}
}

// commitReplyDropper drops the replies of the first n commit requests after
// the coordinator has applied them, forcing the worker to redeliver the same
// sequence numbers. (The fabric's positional DropReplies would also drop
// lease grants, which models a different fault.)
type commitReplyDropper struct {
	inner Doer
	drops int
}

func (d *commitReplyDropper) Do(req *http.Request) (*http.Response, error) {
	resp, err := d.inner.Do(req)
	if err != nil {
		return nil, err
	}
	if d.drops > 0 && strings.HasSuffix(req.URL.Path, "/commit") {
		d.drops--
		resp.Body.Close()
		return nil, fmt.Errorf("netsim: commit reply dropped")
	}
	return resp, nil
}

// TestDistributedDuplicateCommits: dropped commit replies force the worker
// to redeliver commits; the coordinator's sequence-number dedupe must keep
// the merged result exact.
func TestDistributedDuplicateCommits(t *testing.T) {
	serial := serialReference(t, "bugs", distOpts())
	h := newHarness(t)
	id := h.submit("bugs", distOpts())
	w, err := NewWorker(WorkerConfig{
		Name:        "w1",
		BaseURL:     "http://coordinator",
		Client:      &commitReplyDropper{inner: h.fabric.Client("w1"), drops: 2},
		Resolve:     testResolver,
		MaxRetries:  2,
		Backoff:     time.Microsecond,
		Sleep:       func(time.Duration) {},
		CommitEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "duplicate-commits", serial, h.result(id))
}

// TestDistributedTransientOutage: a transient transport failure is retried
// with backoff and the run completes exactly.
func TestDistributedTransientOutage(t *testing.T) {
	serial := serialReference(t, "tree", distOpts())
	h := newHarness(t)
	id := h.submit("tree", distOpts())
	w := h.worker("w1", 2)
	h.fabric.FailNext("w1", 2) // both retried within MaxRetries
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "transient-outage", serial, h.result(id))
}

// TestDistributedStopAtFirstBug: the cooperative stop truncates the run and
// still reports the bug.
func TestDistributedStopAtFirstBug(t *testing.T) {
	opts := distOpts()
	opts.StopAtFirstBug = true
	h := newHarness(t)
	id := h.submit("bugs", opts)
	errs := runWorkers(h.worker("w1", 1), h.worker("w2", 1))
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i+1, err)
		}
	}
	res := h.result(id)
	if !res.Buggy() {
		t.Fatal("no bug reported")
	}
	if res.Complete {
		t.Error("StopAtFirstBug run reported complete")
	}
}

// TestDistributedDrain: a drained worker retires its lease gracefully; a
// second worker finishes the job and the merge stays exact.
func TestDistributedDrain(t *testing.T) {
	serial := serialReference(t, "tree", distOpts())
	h := newHarness(t)
	id := h.submit("tree", distOpts())

	// The draining worker stops before claiming anything (Drain before Run):
	// the degenerate case must be clean too.
	w0 := h.worker("w0", 1)
	w0.Drain()
	if err := w0.Run(); err != nil {
		t.Fatal(err)
	}

	if err := h.worker("w1", 4).Run(); err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "drain", serial, h.result(id))
}

// drainAfterCommits triggers the worker's own Drain after the n-th
// successful commit round-trip, so the drain lands mid-lease with
// unexplored work remaining.
type drainAfterCommits struct {
	inner Doer
	drain func()
	left  int
}

func (d *drainAfterCommits) Do(req *http.Request) (*http.Response, error) {
	resp, err := d.inner.Do(req)
	if err == nil && strings.HasSuffix(req.URL.Path, "/commit") {
		if d.left--; d.left == 0 {
			d.drain()
		}
	}
	return resp, err
}

// TestDistributedDrainMidLease: a worker drained mid-lease must *release*
// its lease — commit the progress so far and hand the unexplored remainder
// back for immediate requeue (no TTL expiry involved) — so a second worker
// can finish the job and the merge stays bit-identical to serial.
func TestDistributedDrainMidLease(t *testing.T) {
	for _, bench := range []string{"tree", "bugs"} {
		t.Run(bench, func(t *testing.T) {
			serial := serialReference(t, bench, distOpts())
			h := newHarness(t)
			id := h.submit(bench, distOpts())

			// w1 claims the root, commits every scenario, and receives the
			// drain signal after its second commit — mid-lease, with most of
			// the subtree still unexplored. (Commits are pipelined: the drain
			// flag set during commit N's round trip is observed by the engine
			// no later than commit N+1's join, so triggering on the second
			// commit guarantees the release fires before the tiny
			// split-shrunk claim runs out.)
			trigger := &drainAfterCommits{inner: h.fabric.Client("w1"), left: 2}
			w1, err := NewWorker(WorkerConfig{
				Name:        "w1",
				BaseURL:     "http://coordinator",
				Client:      trigger,
				Resolve:     testResolver,
				MaxRetries:  2,
				Backoff:     time.Microsecond,
				Sleep:       func(time.Duration) {},
				CommitEvery: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			trigger.drain = w1.Drain
			if err := w1.Run(); err != nil {
				t.Fatal(err)
			}

			// The release must leave the job running with the remainder
			// queued — not spuriously "done" with scenarios missing.
			var st JobStatus
			if code := h.rpc("GET", "/v1/jobs/"+id, nil, &st); code != http.StatusOK {
				t.Fatalf("job status: HTTP %d", code)
			}
			if st.State != JobRunning {
				t.Fatalf("job after mid-lease drain: state %q, want %q (residual requeued)", st.State, JobRunning)
			}

			if err := h.worker("w2", 4).Run(); err != nil {
				t.Fatal(err)
			}
			res := h.result(id)
			assertSameResult(t, bench, serial, res)
			if res.Metrics.LeasesReleased < 1 {
				t.Errorf("LeasesReleased = %d, want >= 1", res.Metrics.LeasesReleased)
			}
			if res.Metrics.LeaseRequeues < 1 {
				t.Errorf("LeaseRequeues = %d, want >= 1 (the drained worker's remainder)", res.Metrics.LeaseRequeues)
			}
			if res.Metrics.LeasesExpired != 0 {
				t.Errorf("LeasesExpired = %d, want 0 (release must not ride on TTL expiry)", res.Metrics.LeasesExpired)
			}
		})
	}
}

// TestCommitRejectsMalformedPayloads: a version-skewed or buggy worker's
// commit must be rejected atomically with 400 — malformed delta stats would
// otherwise corrupt the merge the moment they were absorbed, and a
// malformed split or residual would be granted verbatim to a future worker
// and crash-loop the fleet. The lease survives to accept a corrected commit.
func TestCommitRejectsMalformedPayloads(t *testing.T) {
	h := newHarness(t)
	h.submit("tree", distOpts())
	var grant LeaseResponse
	if code := h.rpc("POST", "/v1/lease", LeaseRequest{Worker: "w1"}, &grant); code != http.StatusOK || grant.Status != StatusGranted {
		t.Fatalf("lease: HTTP %d status %q", code, grant.Status)
	}
	lease := grant.Lease
	badPoint := core.WirePoint{Kind: "coin", N: 2, Idx: 0}
	cases := []struct {
		name string
		req  CommitRequest
	}{
		{"bad bug replay in delta", CommitRequest{Token: lease.Token, Seq: 1, Final: true,
			Delta: &core.WireStats{Bugs: []core.WireBug{{Message: "x", Replay: []core.WirePoint{badPoint}}}}}},
		{"bad obs counters in delta", CommitRequest{Token: lease.Token, Seq: 1, Final: true,
			Delta: &core.WireStats{Obs: &core.WireObs{Counters: []int64{1}}}}},
		{"negative scenarios in delta", CommitRequest{Token: lease.Token, Seq: 1, Final: true,
			Delta: &core.WireStats{Scenarios: -3}}},
		{"bad split", CommitRequest{Token: lease.Token, Seq: 1, Residuals: []core.WireClaim{{}},
			Delta:  &core.WireStats{},
			Splits: []core.WireClaim{{Points: []core.WirePoint{badPoint}}}}},
		{"bad residual", CommitRequest{Token: lease.Token, Seq: 1, Delta: &core.WireStats{},
			Residuals: []core.WireClaim{{Points: []core.WirePoint{{Kind: "rf", N: 2, Idx: 5}}}}}},
	}
	for _, tc := range cases {
		var resp CommitResponse
		if code := h.rpc("POST", "/v1/leases/"+lease.ID+"/commit", tc.req, &resp); code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", tc.name, code)
		}
	}
	// The rejected commits must not have consumed the sequence number or
	// killed the lease: a well-formed final commit still lands.
	var resp CommitResponse
	if code := h.rpc("POST", "/v1/leases/"+lease.ID+"/commit", CommitRequest{
		Token: lease.Token, Seq: 1, Final: true, Delta: &core.WireStats{},
	}, &resp); code != http.StatusOK {
		t.Errorf("valid commit after rejections: HTTP %d, want 200", code)
	}
}

// TestNegativePorVersionClamped: a negative publication-log cursor in a
// lease or commit request must be clamped (replaying the whole log), not
// slice-panic the handler.
func TestNegativePorVersionClamped(t *testing.T) {
	h := newHarness(t)
	id := h.submit("tree", distOpts())
	var grant LeaseResponse
	code := h.rpc("POST", "/v1/lease", LeaseRequest{Worker: "w1", JobID: id, PorVersion: -7}, &grant)
	if code != http.StatusOK || grant.Status != StatusGranted {
		t.Fatalf("lease with negative cursor: HTTP %d status %q", code, grant.Status)
	}
	var resp CommitResponse
	code = h.rpc("POST", "/v1/leases/"+grant.Lease.ID+"/commit", CommitRequest{
		Token: grant.Lease.Token, Seq: 1, Residuals: []core.WireClaim{{}},
		Delta: &core.WireStats{}, PorVersion: -7,
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("commit with negative cursor: HTTP %d", code)
	}
}

// TestCoordinatorRejectsStaleCommit: a zombie worker whose lease expired
// must be fenced with 409 so it cannot double-commit against the requeued
// residual.
func TestCoordinatorRejectsStaleCommit(t *testing.T) {
	h := newHarness(t)
	h.submit("tree", distOpts())
	var grant LeaseResponse
	code := h.rpc("POST", "/v1/lease", LeaseRequest{Worker: "w1"}, &grant)
	if code != http.StatusOK || grant.Status != StatusGranted {
		t.Fatalf("lease: HTTP %d status %q", code, grant.Status)
	}
	h.clock.Advance(61 * time.Second)
	// The sweep runs on the next request; the zombie's token is then dead.
	var resp CommitResponse
	code = h.rpc("POST", "/v1/leases/"+grant.Lease.ID+"/commit", CommitRequest{
		Token: grant.Lease.Token, Seq: 1, Final: true, Delta: &core.WireStats{},
	}, &resp)
	if code != http.StatusConflict {
		t.Fatalf("stale commit: HTTP %d, want 409", code)
	}
}

// TestJobAPIErrors: unknown bench and unknown job surface as client errors.
func TestJobAPIErrors(t *testing.T) {
	h := newHarness(t)
	code := h.rpc("POST", "/v1/jobs", JobRequest{Spec: ProgSpec{Bench: "nope"}}, nil)
	if code != http.StatusBadRequest {
		t.Errorf("unknown bench: HTTP %d, want 400", code)
	}
	code = h.rpc("GET", "/v1/jobs/jX", nil, nil)
	if code != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", code)
	}
}
