package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"jaaru/internal/core"
	"jaaru/internal/obs"
)

// Doer is the transport a Worker speaks through: http.Client satisfies it,
// and the netsim fabric provides a deterministic in-process implementation
// with injected faults.
type Doer interface {
	Do(*http.Request) (*http.Response, error)
}

// WorkerConfig parameterizes a Worker.
type WorkerConfig struct {
	// Name identifies the worker in coordinator accounting/events.
	Name string
	// BaseURL is the coordinator's base URL (e.g. "http://host:8080").
	BaseURL string
	// Client is the transport (default http.DefaultClient).
	Client Doer
	// Resolve materializes job ProgSpecs (required).
	Resolve Resolver
	// MaxRetries bounds transport-level retries per RPC (default 4).
	MaxRetries int
	// Backoff is the base retry/poll delay, doubled per attempt
	// (default 100ms).
	Backoff time.Duration
	// Sleep is the delay hook (default time.Sleep); tests inject a no-op
	// to keep fault-injection runs fast and deterministic.
	Sleep func(time.Duration)
	// CommitEvery bounds scenarios between non-final commits. 0 adapts the
	// cadence per lease to the observed scenario rate (~50ms of exploration
	// per commit, clamped to [16,512]); a positive value pins it. Lower
	// values tighten the re-execution window after a crash at the cost of
	// more RPC traffic.
	CommitEvery int
	// Registry receives worker-local telemetry: lease-claim and commit RPC
	// round-trip latency histograms (obs.TimerLeaseClaim/TimerLeaseCommit)
	// and wire-byte counts. Nil disables collection entirely — the hooks
	// degrade to nil-receiver checks, like every obs hook.
	Registry *obs.Registry
	// Now is the clock RPC latencies are measured against (default
	// time.Now). Tests inject netsim's fake clock, so injected per-hop
	// fabric latency lands in exact histogram buckets.
	Now func() time.Time
}

// Worker claims leases from a coordinator and explores them with
// core.LeaseRunner until the coordinator shuts the fleet down, Drain is
// called, or the transport fails permanently.
type Worker struct {
	cfg      WorkerConfig
	draining atomic.Bool
	// col is the worker's RPC-latency shard of cfg.Registry (nil when no
	// registry is configured; all Observe calls are nil-safe).
	col *obs.Collector
	// runners is the per-job state, touched only by Run's goroutine.
	runners map[string]*jobRunner
}

// jobRunner is the per-job state a worker keeps across leases: the runner
// (whose POR mirror persists, so one lease's pruning helps the next) and
// the cursor into the coordinator's publication log.
type jobRunner struct {
	lr *core.LeaseRunner
	// drained is the local publication-log cursor: entries below it have
	// been shipped to (or came from) the coordinator.
	drained int
	// coordSeen is the cursor into the coordinator's log.
	coordSeen int
	// rate is the observed scenarios/sec over this job's previous leases
	// (0 until a lease ran under a real clock); it drives the adaptive
	// commit cadence when WorkerConfig.CommitEvery is 0.
	rate float64
}

// NewWorker builds a worker; cfg.Resolve and cfg.BaseURL are required.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Resolve == nil {
		return nil, fmt.Errorf("dist: WorkerConfig.Resolve is required")
	}
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("dist: WorkerConfig.BaseURL is required")
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 4
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 100 * time.Millisecond
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Worker{
		cfg:     cfg,
		col:     cfg.Registry.NewShard(), // nil registry -> nil shard
		runners: make(map[string]*jobRunner),
	}, nil
}

// Observability exposes the worker's telemetry registry (nil unless
// WorkerConfig.Registry was set), so the worker binary can serve its own
// /metrics and /v1/status endpoints.
func (w *Worker) Observability() *obs.Registry { return w.cfg.Registry }

// timedPost wraps post, recording the successful round trip's latency into
// timer t. Failed round trips (retries exhausted) are not recorded: the
// histogram measures the cost of RPCs that happened, not the backoff policy.
func (w *Worker) timedPost(t obs.Timer, path string, body, out any) error {
	t0 := w.cfg.Now()
	err := w.post(path, body, out)
	if err == nil {
		w.col.Observe(t, w.cfg.Now().Sub(t0).Nanoseconds())
	}
	return err
}

// Drain requests a graceful stop: the current lease is *released* — the
// progress so far is committed and the unexplored residuals handed back to
// the coordinator, which requeues them for another claimant immediately, so
// nothing is lost and nothing waits for a lease TTL — and no further leases
// are claimed. Safe to call from a signal handler goroutine.
func (w *Worker) Drain() { w.draining.Store(true) }

// Run is the worker main loop. It returns nil on coordinator-initiated
// shutdown or drain, and an error when the coordinator became unreachable
// (transport retries exhausted).
func (w *Worker) Run() error {
	var lastJob string
	for !w.draining.Load() {
		req := LeaseRequest{Worker: w.cfg.Name}
		if jr := w.runners[lastJob]; jr != nil {
			req.JobID = lastJob
			req.PorVersion = jr.coordSeen
		}
		var resp LeaseResponse
		if err := w.timedPost(obs.TimerLeaseClaim, "/v1/lease", &req, &resp); err != nil {
			return fmt.Errorf("lease request: %w", err)
		}
		switch resp.Status {
		case StatusShutdown:
			return nil
		case StatusIdle:
			d := w.cfg.Backoff
			if resp.RetryMs > 0 {
				d = time.Duration(resp.RetryMs) * time.Millisecond
			}
			w.cfg.Sleep(d)
			continue
		case StatusGranted:
		default:
			return fmt.Errorf("lease request: unknown status %q", resp.Status)
		}
		lastJob = resp.Lease.JobID
		if err := w.runLease(resp); err != nil {
			return err
		}
	}
	return nil
}

// commitEveryFor maps an observed scenario rate to a commit cadence: about
// 50ms of exploration per commit, at most ttlMs/8 (commits renew the lease,
// and the rate was observed under an earlier lease's contention), clamped to
// [16,512]. A zero rate (first lease, or a fake test clock) takes 32.
func commitEveryFor(rate float64, ttlMs int) int {
	if rate <= 0 {
		return 32
	}
	budget := 0.050
	if ttlMs > 0 {
		budget = min(budget, float64(ttlMs)/8000)
	}
	return min(max(int(rate*budget), 16), 512)
}

// errStale marks an abandoned lease (token fenced off after expiry): the
// worker drops the lease and moves on — the coordinator already requeued
// its remainder.
var errStale = fmt.Errorf("lease expired under us")

func (w *Worker) runLease(grant LeaseResponse) error {
	l := grant.Lease
	jr := w.runners[l.JobID]
	if jr == nil {
		prog, err := w.cfg.Resolve(l.Spec)
		if err != nil {
			return fmt.Errorf("resolve %q: %w", l.Spec.Bench, err)
		}
		jr = &jobRunner{lr: core.NewLeaseRunner(prog, l.Opts)}
		if w.cfg.CommitEvery > 0 {
			jr.lr.SetCommitEvery(w.cfg.CommitEvery)
		}
		w.runners[l.JobID] = jr
	}
	jr.lr.AbsorbPor(grant.Por)
	jr.coordSeen = grant.PorVersion
	jr.drained = jr.lr.PorVersion()
	if w.cfg.CommitEvery == 0 {
		jr.lr.SetCommitEvery(commitEveryFor(jr.rate, l.TTLMs))
	}

	sink := &leaseSink{w: w, jr: jr, lease: l}
	sink.hungry.Store(grant.Hungry)
	stop := make(chan struct{})
	var hb sync.WaitGroup
	if l.TTLMs > 0 {
		hb.Add(1)
		go func() {
			defer hb.Done()
			w.heartbeat(sink, stop)
		}()
	}
	t0 := w.cfg.Now()
	err := jr.lr.RunLease(l.Claims, sink)
	close(stop)
	hb.Wait()
	// RunLease always joins the pipelined commit before returning, so the
	// sink is quiescent here; fold this lease's observed rate into the
	// job's estimate for the next lease's commit cadence.
	if elapsed := w.cfg.Now().Sub(t0).Seconds(); elapsed > 0 && sink.scenarios > 0 {
		jr.rate = float64(sink.scenarios) / elapsed
	}
	if err != nil && err != errStale {
		return fmt.Errorf("lease %s: %w", l.ID, err)
	}
	return nil
}

// leaseSink adapts the commit protocol to core.LeaseSink. Hungry/Stopped
// reflect the latest coordinator response (stale between commits — that is
// the protocol's contract; exactness rests on Commit alone).
//
// Non-final commits are pipelined: Commit builds the request synchronously
// (sequence number, POR drain, cursors) and ships it on a background
// goroutine, so the engine explores the next scenarios while the ack is in
// flight. The next Commit joins the in-flight send first — commits stay
// strictly seq-ordered on the wire, and a stale/stopped ack surfaces one
// commit late, which the protocol already tolerates (the coordinator
// absorbs deltas seq-gated, and stop signals are cooperative).
type leaseSink struct {
	w     *Worker
	jr    *jobRunner
	lease *Lease

	// The latest coordinator hints, set by the commit sender and the
	// heartbeat.
	hungry, stopped atomic.Bool

	// Engine-goroutine-only state (Commit is never called concurrently).
	seq       int64
	inflight  chan error // pending pipelined commit (nil: none)
	scenarios int        // sum of committed delta scenarios, for the rate estimate
}

func (s *leaseSink) Hungry() bool  { return s.hungry.Load() }
func (s *leaseSink) Stopped() bool { return s.stopped.Load() }

// Draining reflects the worker-local graceful stop, distinct from Stopped:
// a drained lease releases its residuals back to the coordinator, a stopped
// one discards them (the job is over).
func (s *leaseSink) Draining() bool { return s.w.draining.Load() }

// join waits out the pipelined commit, if any, and surfaces its error.
func (s *leaseSink) join() error {
	if s.inflight == nil {
		return nil
	}
	err := <-s.inflight
	s.inflight = nil
	return err
}

func (s *leaseSink) Commit(splits []core.WireClaim, residuals []core.WireClaim, delta *core.WireStats, final bool) error {
	if err := s.join(); err != nil {
		return err
	}
	s.seq++
	req := &CommitRequest{
		Token:      s.lease.Token,
		Seq:        s.seq,
		Splits:     splits,
		Residuals:  residuals,
		Delta:      delta,
		Final:      final,
		Por:        s.jr.lr.DrainPor(s.jr.drained),
		PorVersion: s.jr.coordSeen,
	}
	s.jr.drained = s.jr.lr.PorVersion()
	if delta != nil {
		s.scenarios += delta.Scenarios()
	}
	if len(splits) > 0 {
		// The hungry hint is stale until this commit's ack lands (one commit
		// late under pipelining). Clear it optimistically so the engine does
		// not donate — and flush-commit — on every scenario in between; the
		// ack recomputes hunger after the coordinator absorbed these splits.
		s.hungry.Store(false)
	}
	if final {
		// The final ack is the worker's proof the lease retired; never
		// pipeline it.
		return s.send(req)
	}
	ch := make(chan error, 1)
	s.inflight = ch
	go func() { ch <- s.send(req) }()
	return nil
}

// send ships one commit and folds the ack into the sink. It runs on the
// engine goroutine for final commits and on the pipeline goroutine
// otherwise; the POR mirror it feeds (AbsorbPor) is internally locked, and
// the jr cursors are only read again after join(), which the channel
// orders.
func (s *leaseSink) send(req *CommitRequest) error {
	var resp CommitResponse
	if err := s.w.timedPost(obs.TimerLeaseCommit, "/v1/leases/"+s.lease.ID+"/commit", req, &resp); err != nil {
		return fmt.Errorf("commit: %w", err)
	}
	if resp.Stale {
		return errStale
	}
	s.hungry.Store(resp.Hungry)
	if resp.Stopped {
		s.stopped.Store(true)
	}
	s.jr.lr.AbsorbPor(resp.Por)
	s.jr.coordSeen = resp.PorVersion
	s.jr.drained = s.jr.lr.PorVersion()
	return nil
}

// heartbeat renews s's lease every TTL/8 — the budget commitEveryFor caps
// the commit cadence at — until stop is closed, so long scenarios do not trip
// the TTL between commits.
func (w *Worker) heartbeat(s *leaseSink, stop <-chan struct{}) {
	l := s.lease
	t := time.NewTicker(time.Duration(l.TTLMs) * time.Millisecond / 8)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		var resp HeartbeatResponse
		// Heartbeat failures are advisory: the commit path is the authority,
		// and a genuinely dead coordinator fails there with its own bounded
		// retries.
		if err := w.post("/v1/leases/"+l.ID+"/heartbeat", &HeartbeatRequest{Token: l.Token}, &resp); err == nil && resp.Stopped {
			s.stopped.Store(true)
		}
	}
}

// post sends one lease-path message as a wire-v2 frame, with bounded retry
// and exponential backoff on transport errors and 5xx responses. A 409 (a
// fenced lease) decodes like a 200: its Stale answer is the caller's to act
// on, not a dead coordinator's error.
func (w *Worker) post(path string, body, out any) error {
	payload, err := encodeWire2(nil, body)
	if err != nil {
		return err
	}
	var lastErr error
	backoff := w.cfg.Backoff
	for attempt := 0; attempt <= w.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			w.cfg.Sleep(backoff)
			backoff *= 2
		}
		req, err := http.NewRequest(http.MethodPost, w.cfg.BaseURL+path, bytes.NewReader(payload))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", ContentTypeWireV2)
		resp, err := w.cfg.Client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		w.cfg.Registry.NoteBytes(int64(len(payload)), int64(len(data)))
		switch {
		case resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusConflict:
			return decodeWire2(data, out)
		case resp.StatusCode >= 500:
			lastErr = fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
			continue
		default:
			var e errorResponse
			_ = json.Unmarshal(data, &e)
			return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, e.Error)
		}
	}
	return fmt.Errorf("%s: retries exhausted: %w", path, lastErr)
}
