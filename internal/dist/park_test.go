package dist

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"jaaru/internal/core"
	"jaaru/internal/netsim"
)

// parkHarness is a coordinator with one submitted job whose root claim is
// leased to w1 — the state in which a second worker's lease request parks.
// RetryMs is a minute by default, so a parked request that no event wakes
// fails the test by timing out instead of passing on the park bound.
type parkHarness struct {
	*harness
	job   string
	lease *Lease
}

func newParkHarness(t *testing.T, retryMs int) *parkHarness {
	t.Helper()
	h := &parkHarness{harness: newHarnessCfg(t, Config{RetryMs: retryMs})}
	h.job = h.submit("tree", distOpts())
	var grant LeaseResponse
	if code := h.rpc("POST", "/v1/lease", &LeaseRequest{Worker: "w1"}, &grant); code != http.StatusOK || grant.Status != StatusGranted {
		t.Fatalf("root lease: HTTP %d status %q", code, grant.Status)
	}
	h.lease = grant.Lease
	return h
}

// postLease sends worker's lease request on its own goroutine; the decoded
// response arrives on the channel, nil if the handler wrote none.
func postLease(ctx context.Context, coord *Coordinator, worker string) <-chan *LeaseResponse {
	out := make(chan *LeaseResponse, 1)
	go func() {
		body, _ := encodeWire2(nil, &LeaseRequest{Worker: worker})
		req, _ := http.NewRequestWithContext(ctx, "POST", "http://coordinator/v1/lease", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		coord.ServeHTTP(rec, req)
		var resp LeaseResponse
		if rec.Body.Len() == 0 || decodeWire2(rec.Body.Bytes(), &resp) != nil {
			out <- nil
			return
		}
		out <- &resp
	}()
	return out
}

// awaitLease waits for a postLease response; a request still held after ten
// seconds fails the test.
func awaitLease(t *testing.T, out <-chan *LeaseResponse) *LeaseResponse {
	t.Helper()
	select {
	case resp := <-out:
		return resp
	case <-time.After(10 * time.Second):
		t.Fatal("lease request was not answered")
		return nil
	}
}

// park sends w2's lease request and returns once the coordinator has parked
// it.
func (h *parkHarness) park(ctx context.Context) <-chan *LeaseResponse {
	h.t.Helper()
	out := postLease(ctx, h.coord, "w2")
	deadline := time.Now().Add(10 * time.Second)
	for !h.hungry() {
		if time.Now().After(deadline) {
			h.t.Fatal("w2's lease request never parked")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return out
}

// hungry reports whether the job's Frontier asks for a donation: with w1
// holding the only claim, exactly while w2's lease request left it waiting.
func (h *parkHarness) hungry() bool {
	h.coord.mu.Lock()
	defer h.coord.mu.Unlock()
	return h.coord.jobs[h.job].f.Hungry()
}

func (h *parkHarness) commit(req CommitRequest) {
	h.t.Helper()
	req.Token, req.Delta = h.lease.Token, &core.WireStats{}
	var resp CommitResponse
	if code := h.rpc("POST", "/v1/leases/"+h.lease.ID+"/commit", &req, &resp); code != http.StatusOK {
		h.t.Fatalf("commit: HTTP %d", code)
	}
}

// TestParkedLeaseReleased: a lease request that finds nothing to grant while
// another lease is live is held until work appears or the job ends — a
// split commit, a released lease, a TTL expiry swept by some later RPC, the
// job's completion — and answered then, not after a poll interval.
func TestParkedLeaseReleased(t *testing.T) {
	// A donated split and the donor's residual, as one commit carries them.
	claims := decoded(t, (*core.WireDecoder).Claims, func(e *core.WireEncoder) {
		e.Uvarint(2)
		writePoints(e, 0, [3]int{kindFail, 2, 1})
		e.Bool(true) // limits
		e.Uvarint(1)
		e.Int(2)
		e.Bool(false) // memos
		writePoints(e, 0, [3]int{kindFail, 2, 0}, [3]int{kindFail, 2, 0})
		e.Bool(true)
		e.Uvarint(2)
		e.Int(1)
		e.Int(2)
		e.Bool(false)
	})
	donated, kept := claims[0], claims[1]
	cases := []struct {
		name    string
		release func(h *parkHarness)
		want    string
		claim   core.WireClaim
	}{
		{"split commit", func(h *parkHarness) {
			h.commit(CommitRequest{Seq: 1, Splits: []core.WireClaim{donated}, Residuals: []core.WireClaim{kept}})
		}, StatusGranted, donated},
		{"released lease", func(h *parkHarness) {
			h.commit(CommitRequest{Seq: 1, Final: true, Residuals: []core.WireClaim{kept}})
		}, StatusGranted, kept},
		{"expiry swept by a later RPC", func(h *parkHarness) {
			h.clock.Advance(61 * time.Second)
			if code := h.rpc("GET", "/v1/status", nil, nil); code != http.StatusOK {
				h.t.Fatalf("status: HTTP %d", code)
			}
		}, StatusGranted, core.WireClaim{}},
		{"job completion", func(h *parkHarness) {
			h.commit(CommitRequest{Seq: 1, Final: true})
		}, StatusShutdown, core.WireClaim{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newParkHarness(t, 60_000)
			out := h.park(context.Background())
			// park returned because w2 waiting made the job hungry: that is
			// what makes the lease holder's next commit ack ask for a donation.
			tc.release(h)
			resp := awaitLease(t, out)
			if resp == nil || resp.Status != tc.want {
				t.Fatalf("released with %+v, want status %q", resp, tc.want)
			}
			if tc.want != StatusGranted {
				return
			}
			if !reflect.DeepEqual(resp.Lease.Claims, []core.WireClaim{tc.claim}) {
				t.Errorf("granted claims %+v, want the one claim %+v", resp.Lease.Claims, tc.claim)
			}
			if h.hungry() {
				t.Error("w2 still waiting after its grant")
			}
		})
	}
}

// TestParkedLeaseCancelled: a requester that hangs up while parked is
// released without a grant — a lease handed to nobody would sit until its TTL
// — and no longer counts as waiting.
func TestParkedLeaseCancelled(t *testing.T) {
	h := newParkHarness(t, 60_000)
	ctx, cancel := context.WithCancel(context.Background())
	out := h.park(ctx)
	cancel()
	if resp := awaitLease(t, out); resp != nil {
		t.Errorf("cancelled request was answered %+v", resp)
	}
	if h.hungry() {
		t.Error("w2 still waiting after hanging up")
	}
	h.coord.mu.Lock()
	leases := len(h.coord.jobs[h.job].leases)
	h.coord.mu.Unlock()
	if leases != 1 {
		t.Errorf("%d live leases after a cancelled request, want w1's only", leases)
	}
}

// TestParkBoundAndRetryHint: an unwoken park ends after RetryMs, and the idle
// answer that follows tells the worker to come straight back (it has already
// waited here) instead of sleeping another RetryMs on its own side.
func TestParkBoundAndRetryHint(t *testing.T) {
	h := newParkHarness(t, 20)
	t0 := time.Now()
	resp := awaitLease(t, h.park(context.Background()))
	if resp == nil || resp.Status != StatusIdle || resp.RetryMs != 1 {
		t.Fatalf("after an unwoken park: %+v, want idle with retry_ms 1", resp)
	}
	if waited := time.Since(t0); waited < 20*time.Millisecond {
		t.Errorf("parked %v, want the 20ms bound", waited)
	}
}

// TestLeaseNeverParksWithoutLiveLease: with no job in flight there is nothing
// to wait for — no job at all, or every job done — so the answer comes at
// once, with the configured retry hint. RetryMs is a minute: a park here
// fails the test by timing out.
func TestLeaseNeverParksWithoutLiveLease(t *testing.T) {
	clock := netsim.NewClock()
	coord, err := NewCoordinator(Config{Resolve: testResolver, Now: clock.Now, RetryMs: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{t: t, coord: coord, fabric: netsim.NewFabric(coord), clock: clock}
	poll := func(label string) {
		t.Helper()
		resp := awaitLease(t, postLease(context.Background(), coord, "w2"))
		if resp == nil || resp.Status != StatusIdle || resp.RetryMs != 60_000 {
			t.Errorf("%s: %+v, want idle with the configured retry hint", label, resp)
		}
	}
	poll("no job")

	id := h.submit("tree", distOpts())
	var grant LeaseResponse
	h.rpc("POST", "/v1/lease", &LeaseRequest{Worker: "w1"}, &grant)
	var ack CommitResponse
	h.rpc("POST", "/v1/leases/"+grant.Lease.ID+"/commit", &CommitRequest{
		Token: grant.Lease.Token, Seq: 1, Final: true, Delta: &core.WireStats{},
	}, &ack)
	var st JobStatus
	if h.rpc("GET", "/v1/jobs/"+id, nil, &st); st.State != JobDone {
		t.Fatalf("job state %q after the final commit", st.State)
	}
	poll("job done")
}
