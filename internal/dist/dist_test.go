package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"jaaru/internal/conform"
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

// testTTL is the harness coordinators' lease TTL; tests expire a lease by
// advancing the fake clock past it.
const testTTL = 60 * time.Second

// newHarness is a coordinator on a fake clock behind a netsim fabric.
func newHarness(t *testing.T) *harness { return newHarnessCfg(t, Config{}) }

// newHarnessCfg is newHarness with coordinator knobs under test control;
// Resolve, Now, ShutdownWhenDone and LeaseTTL are filled in.
func newHarnessCfg(t *testing.T, cfg Config) *harness {
	t.Helper()
	clock := netsim.NewClock()
	cfg.Resolve, cfg.Now, cfg.ShutdownWhenDone, cfg.LeaseTTL = testResolver, clock.Now, true, testTTL
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fabric := netsim.NewFabric(coord)
	fabric.SetClock(clock)
	return &harness{t: t, coord: coord, fabric: fabric, clock: clock}
}

// rpc drives the coordinator through the fabric as an external client would:
// lease-path messages as wire-v2 frames, the job API as JSON.
func (h *harness) rpc(method, path string, body, out any) int {
	h.t.Helper()
	var payload []byte
	ct := ContentTypeJSON
	if body != nil {
		var err error
		if raw, ok := body.([]byte); ok {
			payload, ct = raw, ContentTypeWireV2
		} else if payload, err = encodeWire2(nil, body); err == nil {
			ct = ContentTypeWireV2
		} else if payload, err = json.Marshal(body); err != nil {
			h.t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, "http://coordinator"+path, bytes.NewReader(payload))
	if err != nil {
		h.t.Fatal(err)
	}
	req.Header.Set("Content-Type", ct)
	resp, err := h.fabric.Client("client").Do(req)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		data, err := io.ReadAll(resp.Body)
		if err == nil && resp.Header.Get("Content-Type") == ContentTypeWireV2 {
			err = decodeWire2(data, out)
		} else if err == nil {
			err = json.Unmarshal(data, out)
		}
		if err != nil {
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

// view is what the comparer sees of a served result.
func (r *servedResult) view() conform.View {
	return conform.Partitioned(conform.Served(r.Result, r.Traces, nil))
}

// serialView is a serial reference as a fleet's result is compared with it.
func serialView(r *core.Result) conform.View { return conform.Partitioned(conform.Of(r, nil)) }

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

func distOpts() core.Options {
	return core.Options{
		Observe:        true,
		FlagMultiRF:    true,
		FlagPerfIssues: true,
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

// fleetRows are this package's test programs, with the fleet options as
// their serial reference's.
func fleetRows(ref core.Options) (rows []conform.Row) {
	for _, bench := range []string{"tree", "bugs"} {
		rows = append(rows, conform.Row{Name: bench, Opts: ref, Build: func(func(string)) core.Program {
			prog, _ := testResolver(ProgSpec{Bench: bench})
			return prog
		}})
	}
	return rows
}

// fleet is the matrix column of a fleet over the fabric, run with distOpts
// whatever the row's reference. A healthy fleet is three workers. With kill,
// w3 claims the root (the whole tree), commits after every scenario and is
// killed after 4 successful requests: one lease grant plus three non-final
// commits. Nothing is claimable until its lease expires; then w1 and w2
// re-execute the requeued residual.
func fleet(kill bool) conform.Column {
	col := conform.Column{Name: "fleet-of-3", Partitioned: true}
	if kill {
		col.Name = "fleet-of-3-killed"
	}
	col.Run = func(t *testing.T, rw conform.Row, _ core.Options) conform.View {
		h := newHarness(t)
		id := h.submit(rw.Name, distOpts())
		workers := []*Worker{h.worker("w1", 4), h.worker("w2", 4)}
		if kill {
			w3 := h.worker("w3", 1)
			h.fabric.KillAfter("w3", 4)
			if err := w3.Run(); err == nil {
				t.Fatal("killed worker exited cleanly; expected transport failure")
			}
			h.clock.Advance(61 * time.Second)
		} else {
			workers = append(workers, h.worker("w3", 4))
		}
		for i, err := range runWorkers(workers...) {
			if err != nil {
				t.Fatalf("worker %d: %v", i+1, err)
			}
		}
		res := h.result(id)
		if m := res.Metrics; kill && (m.LeaseRequeues < 1 || m.LeasesExpired < 1) {
			t.Errorf("LeaseRequeues = %d, LeasesExpired = %d; want >= 1 each (the killed worker's subtree)",
				m.LeaseRequeues, m.LeasesExpired)
		}
		return res.view()
	}
	return col
}

// TestDistributedMatchesSerial: a healthy 3-worker fleet over the fabric
// merges to the serial reference exactly.
func TestDistributedMatchesSerial(t *testing.T) {
	conform.Run(t, fleetRows(distOpts()), []conform.Column{fleet(false)}, nil)
}

// TestDistributedWorkerKilledMidLease is the robustness acceptance gate: the
// killed worker's residual subtree is requeued and re-executed by the
// surviving workers; the merged result must still be bit-identical to the
// serial reference.
func TestDistributedWorkerKilledMidLease(t *testing.T) {
	conform.Run(t, fleetRows(distOpts()), []conform.Column{fleet(true)}, nil)
}

// TestChoiceSnapshotEquivalenceKilledWorker crosses the snapshot stack with
// distribution and fault injection: the same fleet, against the replay
// oracle (Snapshots: -1) as the serial reference.
func TestChoiceSnapshotEquivalenceKilledWorker(t *testing.T) {
	ref := distOpts()
	ref.Snapshots = -1
	conform.Run(t, fleetRows(ref), []conform.Column{fleet(true)}, nil)
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
	conform.Exact(t, "duplicate-commits", serialView(serial), h.result(id).view())
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
	conform.Exact(t, "transient-outage", serialView(serial), h.result(id).view())
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
	conform.Exact(t, "drain", serialView(serial), h.result(id).view())
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
			conform.Exact(t, bench, serialView(serial), res.view())
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
// commit must be rejected atomically with 400 as its frame is decoded —
// malformed delta stats would otherwise corrupt the merge the moment they
// were absorbed, and a malformed split or residual would be granted
// verbatim to a future worker and crash-loop the fleet. The lease survives
// to accept a corrected commit.
func TestCommitRejectsMalformedPayloads(t *testing.T) {
	h := newHarness(t)
	h.submit("tree", distOpts())
	var grant LeaseResponse
	if code := h.rpc("POST", "/v1/lease", &LeaseRequest{Worker: "w1"}, &grant); code != http.StatusOK || grant.Status != StatusGranted {
		t.Fatalf("lease: HTTP %d status %q", code, grant.Status)
	}
	lease := grant.Lease
	// frame writes a commit frame field by field, its splits, residuals and
	// delta by the given writers: a malformed claim or stats batch cannot be
	// built, only written.
	type writer = func(e *core.WireEncoder)
	frame := func(final bool, splits, residuals, delta writer) []byte {
		e := core.NewWireEncoder(nil)
		e.Byte(wire2Magic0)
		e.Byte(wire2Magic1)
		e.Byte(frameCommitRequest)
		e.String(lease.Token)
		e.Varint(1) // seq
		splits(e)
		residuals(e)
		delta(e)
		e.Bool(final)
		e.Uvarint(0) // por entries
		e.Int(0)     // por version
		return e.Bytes()
	}
	none := func(e *core.WireEncoder) { e.Uvarint(0) }
	claim := func(fresh ...[3]int) writer {
		return func(e *core.WireEncoder) {
			e.Uvarint(1)
			writeFrozen(e, fresh...)
		}
	}
	empty := func(e *core.WireEncoder) { writeStats(e) }
	cases := []struct {
		name  string
		frame []byte
	}{
		{"bad bug replay in delta", frame(true, none, none, func(e *core.WireEncoder) {
			writeStatsHead(e)
			e.Uvarint(1)
			e.Int(0) // type
			e.String("x")
			e.Int(0) // execution
			e.Int(0) // scenario
			e.Int(1) // count
			e.String("")
			writePoints(e, 0, [3]int{3, 2, 0}) // kind code 3: no such kind
			e.Uvarint(0)
			e.Uvarint(0)
			e.Bool(false)
		})},
		{"bad obs counters in delta", frame(true, none, none, func(e *core.WireEncoder) {
			writeStatsHead(e)
			e.Uvarint(0)
			e.Uvarint(0)
			e.Uvarint(0)
			e.Bool(true)
			e.Uvarint(1) // one counter wide
			e.Uvarint(1)
			e.Uvarint(0)
			e.Varint(1)
			e.Uvarint(0) // peaks
			e.Uvarint(0)
			e.Uvarint(0) // histograms
		})},
		{"negative scenarios in delta", frame(true, none, none, func(e *core.WireEncoder) { writeStats(e, -3) })},
		{"bad split", frame(false, claim([3]int{kindRF, 0, 0}), claim(), empty)},
		{"bad residual", frame(false, none, claim([3]int{kindRF, 2, 5}), empty)},
		// The codec once carried unknown kinds escaped (0xff, then the
		// kind's name) for a later Validate to reject; now the decoder does.
		{"escaped point kind", frame(false, func(e *core.WireEncoder) {
			e.Uvarint(1)
			e.Uvarint(1)
			e.Uvarint(0)
			e.Byte(0xff)
			e.String("coin")
			e.Int(2)
			e.Int(0)
			e.Bool(false)
			e.Bool(false)
		}, claim(), empty)},
	}
	for _, tc := range cases {
		var resp CommitResponse
		if code := h.rpc("POST", "/v1/leases/"+lease.ID+"/commit", tc.frame, &resp); code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", tc.name, code)
		}
	}
	// The rejected commits must not have consumed the sequence number or
	// killed the lease: a well-formed final commit still lands.
	var resp CommitResponse
	if code := h.rpc("POST", "/v1/leases/"+lease.ID+"/commit", &CommitRequest{
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
	code := h.rpc("POST", "/v1/lease", &LeaseRequest{Worker: "w1", JobID: id, PorVersion: -7}, &grant)
	if code != http.StatusOK || grant.Status != StatusGranted {
		t.Fatalf("lease with negative cursor: HTTP %d status %q", code, grant.Status)
	}
	var resp CommitResponse
	code = h.rpc("POST", "/v1/leases/"+grant.Lease.ID+"/commit", &CommitRequest{
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
	code := h.rpc("POST", "/v1/lease", &LeaseRequest{Worker: "w1"}, &grant)
	if code != http.StatusOK || grant.Status != StatusGranted {
		t.Fatalf("lease: HTTP %d status %q", code, grant.Status)
	}
	h.clock.Advance(61 * time.Second)
	// The sweep runs on the next request; the zombie's token is then dead.
	var resp CommitResponse
	code = h.rpc("POST", "/v1/leases/"+grant.Lease.ID+"/commit", &CommitRequest{
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
