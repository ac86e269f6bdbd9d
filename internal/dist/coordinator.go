package dist

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"jaaru/internal/core"
	"jaaru/internal/obs"
	"jaaru/internal/telemetry"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Resolve materializes submitted ProgSpecs (required).
	Resolve Resolver
	// Now is the clock leases are measured against (default time.Now).
	// Tests inject a fake clock to drive TTL expiry deterministically.
	Now func() time.Time
	// ShutdownWhenDone releases the fleet: once at least one job was
	// submitted and every job is done, lease requests answer
	// StatusShutdown instead of StatusIdle. Used by the in-process test
	// harness and batch runs; a long-running service leaves it false.
	ShutdownWhenDone bool
	// RetryMs is the poll-again hint on idle lease responses, and the longest
	// a lease request is parked waiting for work while another lease is live
	// (default 200).
	RetryMs int
	// DisableWireV2 pins the coordinator to JSON responses even for workers
	// that advertise codec v2 (mixed-fleet rollbacks and the v1-coordinator
	// interop tests).
	DisableWireV2 bool
}

// lease is one granted unit of work.
type lease struct {
	id    string
	token string
	job   *job
	// claims is the unexplored remainder this lease is responsible for: the
	// granted claim before the first commit, the latest residuals after.
	// It is exactly what expiry requeues. Committed deltas were absorbed as
	// they arrived (seq-gated), so expiry has no stats to fold.
	claims []core.WireClaim
	seq    int64
	// deadline is the expiry instant, zero when the job's TTL is disabled.
	deadline time.Time
}

// job is one submitted workload and everything needed to merge its result.
type job struct {
	id   string
	spec ProgSpec
	opts core.Options
	acc  *core.MergeAcc

	queued  []core.WireClaim
	leases  map[string]*lease
	workers map[string]struct{}

	stopped bool // a cap fired: wind down cooperatively
	capHit  bool

	// start is the submission instant (cfg.Now), the baseline the live
	// scenarios/sec rate and ETA are measured against.
	start time.Time

	absorbedScen  int                 // scenarios in absorbed delta commits
	absorbedExecs int                 // post-failure executions, same source
	bugKeys       map[string]struct{} // distinct canonical bug keys seen

	porLog   []core.WirePorEntry
	porIndex map[uint64]struct{}

	result *core.Result
	// traced is result.Bugs with their traces, replayed by the first status
	// poll that finds the job done (tracedStatus).
	traceOnce sync.Once
	traced    []tracedBug
}

// tracedBug is a bug report as the job API serves it: the report's exported
// fields plus the last jobTraceLen operations of its scenario under "Trace".
type tracedBug struct {
	*core.BugReport
	Trace []core.TraceOp
}

func (j *job) reg() *obs.Registry { return j.acc.Observability() }

func (j *job) done() bool { return j.result != nil }

// Coordinator owns the global frontier, caps, and POR publication log of
// every submitted job, and serves the lease protocol over HTTP. All methods
// are safe for concurrent use; it implements http.Handler.
type Coordinator struct {
	cfg Config
	mux *http.ServeMux

	start time.Time

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string
	workers map[string]struct{}
	// starving holds workers whose latest lease poll found nothing (parked
	// ones included); a grant removes them. It is the hunger signal:
	// donations are solicited only while the queue cannot feed every idle
	// worker, so a busy fleet on a small frontier is not milked for a split
	// on every scenario.
	starving map[string]struct{}
	// wake is closed, and replaced, whenever a parked lease request should
	// look again: claims were queued or a job finished (wakeLocked).
	wake      chan struct{}
	submitted bool
	nextJob   int
	nextLease int
	nextToken int
}

// NewCoordinator builds a coordinator; cfg.Resolve is required.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.Resolve == nil {
		return nil, fmt.Errorf("dist: Config.Resolve is required")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.RetryMs <= 0 {
		cfg.RetryMs = 200
	}
	c := &Coordinator{
		cfg:      cfg,
		start:    cfg.Now(),
		jobs:     make(map[string]*job),
		workers:  make(map[string]struct{}),
		starving: make(map[string]struct{}),
		wake:     make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", c.handleJobStatus)
	mux.HandleFunc("POST /v1/lease", c.handleLease)
	mux.HandleFunc("POST /v1/leases/{id}/commit", c.handleCommit)
	mux.HandleFunc("POST /v1/leases/{id}/heartbeat", c.handleHeartbeat)
	mux.Handle("GET /metrics", telemetry.MetricsHandler(c.telemetrySeries))
	mux.Handle("GET /v1/status", telemetry.StatusHandler(c.status))
	c.mux = mux
	return c, nil
}

func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

// ---- job lifecycle ----------------------------------------------------------

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := readJSON(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	prog, err := c.cfg.Resolve(req.Spec)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	acc := core.NewMergeAcc(prog, req.Opts)
	c.mu.Lock()
	c.nextJob++
	j := &job{
		id:       fmt.Sprintf("j%d", c.nextJob),
		spec:     req.Spec,
		opts:     acc.Options(),
		acc:      acc,
		start:    c.cfg.Now(),
		leases:   make(map[string]*lease),
		workers:  make(map[string]struct{}),
		bugKeys:  make(map[string]struct{}),
		porIndex: make(map[uint64]struct{}),
	}
	c.jobs[j.id] = j
	c.order = append(c.order, j.id)
	c.submitted = true
	c.queueLocked(j, []core.WireClaim{{}}) // the root claim: the whole tree
	j.reg().NoteRPC()
	j.reg().SetGoal(int64(j.opts.MaxScenarios))
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, JobResponse{ID: j.id})
}

func (c *Coordinator) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	c.sweepLocked()
	j, ok := c.jobs[r.PathValue("id")]
	var st JobStatus
	if ok {
		j.reg().NoteRPC()
		st = JobStatus{ID: j.id, State: JobRunning}
		if j.done() {
			st.State = JobDone
			st.Result = j.result
		}
	}
	c.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{"no such job"})
		return
	}
	if st.Result != nil {
		writeJSON(w, http.StatusOK, j.tracedStatus(st))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// tracedStatus is the JSON a finished job is served as: st with its bugs
// replaced by their traced form. Exploration records no traces, so they are
// replayed here, once per job — and never under Coordinator.mu: the replay of
// an infinite-loop bug is a whole MaxSteps execution.
func (j *job) tracedStatus(st JobStatus) any {
	j.traceOnce.Do(func() {
		for _, b := range j.result.Bugs {
			j.traced = append(j.traced, tracedBug{b, b.Trace(jobTraceLen)})
		}
	})
	type tracedResult struct {
		*core.Result
		Bugs []tracedBug
	}
	return struct {
		JobStatus
		Result tracedResult `json:"result"`
	}{st, tracedResult{j.result, j.traced}}
}

// ---- lease protocol ---------------------------------------------------------

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	v2 := c.wantsV2(r)
	var req LeaseRequest
	rx, err := readRequest(r, &req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	c.mu.Lock()
	c.sweepLocked()
	if req.Worker != "" {
		c.workers[req.Worker] = struct{}{}
	}
	resp, reg := c.grantLocked(&req)
	retryMs := c.cfg.RetryMs
	if resp == nil && c.leaseLiveLocked() {
		// Nothing to grant, but a lease is live: its holder donates half its
		// open work at its next commit once it hears of this worker (the
		// starving set feeds hungryLocked), and the job may be over before a
		// poll interval has passed. Park the request — outside c.mu — until
		// claims are queued or a job finishes, for at most RetryMs.
		if req.Worker != "" {
			c.starving[req.Worker] = struct{}{}
		}
		wake := c.wake
		c.mu.Unlock()
		t := time.NewTimer(time.Duration(c.cfg.RetryMs) * time.Millisecond)
		gone := false
		select {
		case <-wake:
		case <-t.C:
		case <-r.Context().Done():
			gone = true
		}
		t.Stop()
		c.mu.Lock()
		if gone {
			// The requester hung up: a grant would leave a lease nobody runs.
			delete(c.starving, req.Worker)
			c.mu.Unlock()
			return
		}
		resp, reg = c.grantLocked(&req)
		// An idle answer after a park has done its waiting here: the worker
		// should come straight back and park again, not sleep on its side.
		retryMs = 1
	}
	if resp == nil {
		resp = &LeaseResponse{Status: StatusIdle, RetryMs: retryMs}
		if c.cfg.ShutdownWhenDone && c.submitted && c.allDoneLocked() {
			resp = &LeaseResponse{Status: StatusShutdown}
		} else if req.Worker != "" {
			c.starving[req.Worker] = struct{}{}
		}
	}
	c.mu.Unlock()
	writeResp(w, http.StatusOK, resp, v2, reg, rx)
}

// grantLocked leases the most recently queued claim of the first job that has
// one, or returns nil. One claim per lease: a donated claim is half its
// donor's open work and the queue holds at most one per starving worker, so a
// batch granted to one poller would starve the next.
func (c *Coordinator) grantLocked(req *LeaseRequest) (*LeaseResponse, *obs.Registry) {
	for _, id := range c.order {
		j := c.jobs[id]
		if j.done() || j.stopped || len(j.queued) == 0 {
			continue
		}
		// LIFO, like the in-process frontier.
		claims := []core.WireClaim{j.queued[len(j.queued)-1]}
		j.queued = j.queued[:len(j.queued)-1]
		c.nextLease++
		c.nextToken++
		l := &lease{
			// Tokens fence stale workers from expired leases; they are not
			// an authentication mechanism (see docs/ALGORITHM.md).
			id:     fmt.Sprintf("l%d", c.nextLease),
			token:  fmt.Sprintf("t%d", c.nextToken),
			job:    j,
			claims: claims,
		}
		ttl := j.opts.LeaseTTLMs
		if ttl > 0 {
			l.deadline = c.cfg.Now().Add(time.Duration(ttl) * time.Millisecond)
		}
		j.leases[l.id] = l
		if req.Worker != "" {
			j.workers[req.Worker] = struct{}{}
			delete(c.starving, req.Worker)
		}
		reg := j.reg()
		reg.NoteClaim(len(j.queued))
		reg.NoteRPC()
		reg.NoteLease()
		resp := &LeaseResponse{
			Status: StatusGranted,
			Lease: &Lease{
				ID:     l.id,
				Token:  l.token,
				JobID:  j.id,
				Spec:   j.spec,
				Opts:   j.opts,
				Claims: claims,
				TTLMs:  ttl,
			},
			Hungry:     c.hungryLocked(j),
			PorVersion: len(j.porLog),
		}
		// Ship the publication-log suffix the worker is missing. The cursor
		// only applies when the worker guessed the job it would be assigned;
		// otherwise it replays the log from the start (absorb is idempotent).
		from := 0
		if req.JobID == j.id {
			// Clamp both ends: a negative cursor (malformed request) must
			// not slice-panic, it just replays the whole log.
			from = min(max(0, req.PorVersion), len(j.porLog))
		}
		resp.Por = append([]core.WirePorEntry(nil), j.porLog[from:]...)
		return resp, reg
	}
	return nil, nil
}

// leaseLiveLocked reports whether some unfinished job has a live lease — the
// only state in which work can still appear for an idle worker.
func (c *Coordinator) leaseLiveLocked() bool {
	for _, j := range c.jobs {
		if !j.done() && len(j.leases) > 0 {
			return true
		}
	}
	return false
}

// queueLocked puts claims on j's queue and wakes the parked lease requests:
// every push goes through here, so none is slept through.
func (c *Coordinator) queueLocked(j *job, claims []core.WireClaim) {
	j.queued = append(j.queued, claims...)
	c.wakeLocked()
}

// wakeLocked releases every parked lease request to retry its grant.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

func (c *Coordinator) handleCommit(w http.ResponseWriter, r *http.Request) {
	v2 := c.wantsV2(r)
	var req CommitRequest
	rx, err := readRequest(r, &req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	c.mu.Lock()
	c.sweepLocked()
	l := c.findLeaseLocked(r.PathValue("id"), req.Token)
	if l == nil {
		// Expired (or never granted): the residuals are already requeued,
		// and everything since the worker's last applied commit will be
		// re-executed by the next claimant — the worker must abandon.
		c.mu.Unlock()
		writeResp(w, http.StatusConflict, &CommitResponse{Stale: true}, v2, nil, rx)
		return
	}
	j := l.job
	reg := j.reg()
	reg.NoteRPC()
	if req.Seq <= l.seq {
		// Duplicate delivery of an applied commit (retry after a lost
		// response): acknowledge without re-absorbing anything. This gate is
		// what keeps the incremental payloads idempotent.
		ack := c.commitAckLocked(j, req.PorVersion, len(j.porLog))
		c.mu.Unlock()
		writeResp(w, http.StatusOK, &ack, v2, reg, rx)
		return
	}
	// Validate the whole payload before mutating any state, so a malformed
	// commit (version-skewed or buggy worker) is rejected atomically: the
	// delta feeds MergeAcc.Absorb below without an error path, and the
	// claims are granted verbatim to future workers — a bad one accepted
	// here would crash-loop every claimant. Rejections are always JSON so a
	// version-skewed peer can read them.
	fail := func(code int, msg string) {
		c.mu.Unlock()
		writeJSON(w, code, errorResponse{msg})
	}
	if req.Delta == nil {
		fail(http.StatusBadRequest, "commit without delta stats")
		return
	}
	if !req.Final && len(req.Residuals) == 0 {
		fail(http.StatusBadRequest, "non-final commit without residuals")
		return
	}
	if err := req.Delta.Validate(); err != nil {
		fail(http.StatusBadRequest, fmt.Sprintf("delta: %v", err))
		return
	}
	for i := range req.Residuals {
		if err := req.Residuals[i].Validate(); err != nil {
			fail(http.StatusBadRequest, fmt.Sprintf("residual %d: %v", i, err))
			return
		}
	}
	for i := range req.Splits {
		if err := req.Splits[i].Validate(); err != nil {
			fail(http.StatusBadRequest, fmt.Sprintf("split %d: %v", i, err))
			return
		}
	}
	// Ingest POR entries before snapshotting the response window, so the
	// reply's Por slice excludes this commit's own contributions.
	logBefore := len(j.porLog)
	for i := range req.Por {
		e := req.Por[i]
		if _, seen := j.porIndex[e.FP]; seen {
			continue
		}
		if err := core.AbsorbPorEntry(&e); err != nil {
			fail(http.StatusBadRequest, err.Error())
			return
		}
		j.porIndex[e.FP] = struct{}{}
		j.porLog = append(j.porLog, e)
	}
	l.seq = req.Seq
	// Absorb the delta immediately: with seq-gated deltas there is nothing
	// to fold at retire or expiry, and the live telemetry view is simply
	// the registry (no per-lease overlay).
	j.absorbedScen += req.Delta.Scenarios
	j.absorbedExecs += req.Delta.ExecsPost
	// Absorb errors cannot happen here: Validate above covers every Absorb
	// error path (malformed payloads got 400 before any mutation).
	_ = j.acc.Absorb(req.Delta)
	reg.NoteCommitBatch(int64(req.Delta.Scenarios))
	if len(req.Splits) > 0 && !j.stopped {
		// Splits and the residuals travel in one atomic commit, so the
		// donated options are accounted exactly once: the residuals' limits
		// were already lowered past them by the split.
		c.queueLocked(j, req.Splits)
		reg.NotePush(len(req.Splits), len(j.queued))
		reg.NoteDonation(len(req.Splits))
	}
	if req.Final {
		if len(req.Residuals) > 0 {
			// Final commit with residuals: the lease is *released* (worker
			// drain), not complete. Requeue the remainder exactly as TTL
			// expiry would — immediately, so nothing waits for (or depends
			// on) an expiry that may never come when TTLs are disabled.
			requeued := false
			if !j.stopped {
				c.queueLocked(j, req.Residuals)
				reg.NotePush(len(req.Residuals), len(j.queued))
				requeued = true
			}
			reg.NoteLeaseReleased(requeued)
			reg.Emit("lease_released", "lease", l.id, "requeued", requeued)
		}
		delete(j.leases, l.id)
	} else {
		l.claims = req.Residuals
		if ttl := j.opts.LeaseTTLMs; ttl > 0 {
			l.deadline = c.cfg.Now().Add(time.Duration(ttl) * time.Millisecond)
		}
	}
	// Cooperative caps, on the same thresholds the in-process sharedCaps
	// enforces. Bug keys dedupe canonically before any cap accounting, so
	// the same bug reported by two workers in one stop window counts once.
	// A delta carries a bug exactly when its count grew, which includes
	// every first sighting.
	for _, key := range req.Delta.BugKeys() {
		if _, ok := j.bugKeys[key]; ok {
			continue
		}
		j.bugKeys[key] = struct{}{}
		if j.opts.StopAtFirstBug || len(j.bugKeys) >= j.opts.MaxBugs {
			c.stopJobLocked(j)
		}
	}
	if j.absorbedScen >= j.opts.MaxScenarios {
		c.stopJobLocked(j)
	}
	c.maybeFinishLocked(j)
	ack := c.commitAckLocked(j, req.PorVersion, logBefore)
	c.mu.Unlock()
	writeResp(w, http.StatusOK, &ack, v2, reg, rx)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	v2 := c.wantsV2(r)
	var req HeartbeatRequest
	rx, err := readRequest(r, &req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	c.mu.Lock()
	c.sweepLocked()
	l := c.findLeaseLocked(r.PathValue("id"), req.Token)
	if l == nil {
		c.mu.Unlock()
		writeResp(w, http.StatusConflict, &HeartbeatResponse{Stale: true}, v2, nil, rx)
		return
	}
	reg := l.job.reg()
	reg.NoteRPC()
	if ttl := l.job.opts.LeaseTTLMs; ttl > 0 {
		l.deadline = c.cfg.Now().Add(time.Duration(ttl) * time.Millisecond)
	}
	stopped := l.job.stopped
	c.mu.Unlock()
	writeResp(w, http.StatusOK, &HeartbeatResponse{Stopped: stopped}, v2, reg, rx)
}

// ---- internals --------------------------------------------------------------

func (c *Coordinator) findLeaseLocked(id, token string) *lease {
	for _, j := range c.jobs {
		if l, ok := j.leases[id]; ok && l.token == token {
			return l
		}
	}
	return nil
}

func (c *Coordinator) commitAckLocked(j *job, porFrom, porTo int) CommitResponse {
	porFrom = min(max(0, porFrom), porTo)
	return CommitResponse{
		Stopped:    j.stopped,
		Hungry:     c.hungryLocked(j),
		Por:        append([]core.WirePorEntry(nil), j.porLog[porFrom:porTo]...),
		PorVersion: len(j.porLog),
	}
}

func (c *Coordinator) hungryLocked(j *job) bool {
	if j.stopped || j.done() {
		return false
	}
	// Hungry only while the queue cannot feed every worker whose latest poll
	// came up empty — the in-process frontier's rule. Each donation costs the
	// donor a flush commit and half its open work, so hunger must mean real
	// starvation, not a watermark.
	return len(j.queued) < len(c.starving)
}

// sweepLocked expires overdue leases: everything the dead worker committed
// was already absorbed (seq-gated deltas), so expiry just requeues the last
// residuals — the subtree the worker still owned is re-executed exactly
// once by a future claimant.
func (c *Coordinator) sweepLocked() {
	now := c.cfg.Now()
	for _, id := range c.order {
		j := c.jobs[id]
		if j.done() {
			continue
		}
		for lid, l := range j.leases {
			if l.deadline.IsZero() || !now.After(l.deadline) {
				continue
			}
			delete(j.leases, lid)
			requeued := false
			if !j.stopped {
				c.queueLocked(j, l.claims)
				requeued = true
			}
			j.reg().NoteLeaseExpired(requeued)
			j.reg().Emit("lease_expired", "lease", lid, "requeued", requeued)
		}
		c.maybeFinishLocked(j)
	}
}

func (c *Coordinator) stopJobLocked(j *job) {
	if !j.stopped {
		j.stopped = true
		j.capHit = true
	}
}

// maybeFinishLocked builds the merged result once the job's frontier has
// drained: no queued claims and no active leases (a stopped job finishes as
// soon as its in-flight leases retire; its queued claims are discarded, the
// cap already marked the exploration incomplete).
func (c *Coordinator) maybeFinishLocked(j *job) {
	if j.done() || len(j.leases) != 0 {
		return
	}
	if !j.stopped && len(j.queued) != 0 {
		return
	}
	j.queued = nil
	j.acc.SetWorkers(len(j.workers))
	j.result = j.acc.BuildResult(!j.capHit)
	c.wakeLocked()
}

func (c *Coordinator) allDoneLocked() bool {
	for _, j := range c.jobs {
		if !j.done() {
			return false
		}
	}
	return true
}

// ---- telemetry --------------------------------------------------------------

// jobViewLocked builds the live telemetry view of one job. Deltas are
// absorbed into the merge accumulator the moment they commit, so the
// registry snapshot *is* the live view — no per-lease overlay — and
// histogram/timing data stays outside the canonical result by construction
// (see obs.Timer).
func (c *Coordinator) jobViewLocked(j *job) (obs.Metrics, obs.HistVec, telemetry.JobStatus) {
	reg := j.reg()
	m := reg.Snapshot()
	hv := reg.Histograms()
	scen := int64(j.absorbedScen)
	execs := int64(j.absorbedExecs)

	state := "running"
	switch {
	case j.done():
		state = "done"
	case j.stopped:
		state = "stopping"
	}
	elapsed := c.cfg.Now().Sub(j.start).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(scen) / elapsed
	}
	goal := int64(j.opts.MaxScenarios)
	st := telemetry.JobStatus{
		ID:           j.id,
		Bench:        j.spec.Bench,
		State:        state,
		Scenarios:    scen,
		Goal:         goal,
		Rate:         rate,
		ETASec:       telemetry.ETASec(scen, goal, rate),
		FrontierLen:  int64(len(j.queued)),
		MaxDepth:     m.MaxChoiceDepth,
		ActiveLeases: len(j.leases),
		Workers:      int64(len(j.workers)),
		Bugs:         len(j.bugKeys),
		Latency:      telemetry.LatencyMap(hv),
		BytesTx:      m.BytesTx,
		BytesRx:      m.BytesRx,
		CommitBatch:  m.CommitBatchSize,
	}
	if execs > 0 {
		st.Executions = execs + 1 // the shared pre-failure execution
	}
	return m, hv, st
}

// telemetrySeries is the GET /metrics source: one labeled series per job, in
// submission order.
func (c *Coordinator) telemetrySeries() []telemetry.Series {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked()
	out := make([]telemetry.Series, 0, len(c.order))
	for _, id := range c.order {
		m, hv, _ := c.jobViewLocked(c.jobs[id])
		out = append(out, telemetry.Series{
			Labels:  []telemetry.Label{{Name: "job", Value: id}},
			Metrics: m,
			Hists:   hv,
		})
	}
	return out
}

// status is the GET /v1/status source: one JobStatus row per job.
func (c *Coordinator) status() telemetry.Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked()
	st := telemetry.Status{
		Service:   "jaaru-coordinator",
		UptimeSec: c.cfg.Now().Sub(c.start).Seconds(),
	}
	for _, id := range c.order {
		_, _, js := c.jobViewLocked(c.jobs[id])
		st.Jobs = append(st.Jobs, js)
	}
	return st
}

// ---- http plumbing ----------------------------------------------------------

const maxBodyBytes = 64 << 20

// wantsV2 reports whether the peer sent codec v2 or advertised it via
// Accept, and the coordinator is willing to answer in v2. Negotiation is
// per-request: a mixed fleet has v1 and v2 exchanges interleaved on the
// same endpoints.
func (c *Coordinator) wantsV2(r *http.Request) bool {
	if c.cfg.DisableWireV2 {
		return false
	}
	if r.Header.Get("Content-Type") == ContentTypeWireV2 {
		return true
	}
	for _, v := range r.Header.Values("Accept") {
		if strings.Contains(v, ContentTypeWireV2) {
			return true
		}
	}
	return false
}

// readRequest decodes the request body by its declared codec and returns
// the body size for wire accounting.
func readRequest(r *http.Request, v any) (int, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		return 0, fmt.Errorf("read body: %v", err)
	}
	if r.Header.Get("Content-Type") == ContentTypeWireV2 {
		return len(body), decodeWire2(body, v)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return len(body), fmt.Errorf("decode body: %v", err)
	}
	return len(body), nil
}

func readJSON(r *http.Request, v any) error {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		return fmt.Errorf("read body: %v", err)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("decode body: %v", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encode response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", ContentTypeJSON)
	w.WriteHeader(code)
	w.Write(buf)
}

// wire2Pool recycles encode buffers across lease/commit/heartbeat
// responses; the lease hot path allocates nothing per response beyond what
// the message itself forces.
var wire2Pool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

// writeResp encodes v with the negotiated codec and writes it. Call sites
// invoke it strictly OUTSIDE the coordinator mutex — encoding under c.mu is
// the contention bug the regression test in coordinator_lock_test.go pins.
// reg, when non-nil, accumulates the exchange's wire bytes (tx=response,
// rx=request) into the job's registry.
func writeResp(w http.ResponseWriter, code int, v any, v2 bool, reg *obs.Registry, rx int) {
	if v2 {
		bp := wire2Pool.Get().(*[]byte)
		enc, err := encodeWire2(*bp, v)
		if err == nil {
			w.Header().Set("Content-Type", ContentTypeWireV2)
			w.WriteHeader(code)
			w.Write(enc)
			reg.NoteBytes(int64(len(enc)), int64(rx))
			*bp = enc[:0]
			wire2Pool.Put(bp)
			return
		}
		wire2Pool.Put(bp)
		// No v2 frame for this type: fall back to JSON below.
	}
	buf, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encode response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", ContentTypeJSON)
	w.WriteHeader(code)
	w.Write(buf)
	reg.NoteBytes(int64(len(buf)), int64(rx))
}
