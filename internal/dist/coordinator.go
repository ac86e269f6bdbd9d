package dist

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
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
	// LeaseTTL is how long a lease lives without a commit or heartbeat before
	// its worker is presumed dead and its residual requeued (default 30s;
	// workers heartbeat every TTL/8). Negative: leases never expire and
	// workers never heartbeat (deterministic tests, a stopped worker).
	LeaseTTL time.Duration
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
	// deadline is the expiry instant, zero when leases never expire.
	deadline time.Time
}

// job is one submitted workload: its claims, caps and merge (the Frontier),
// the leases out against it, and its POR publication log.
type job struct {
	id   string
	spec ProgSpec
	opts core.Options
	acc  *core.MergeAcc
	f    *core.Frontier

	leases  map[string]*lease
	workers map[string]struct{}

	// start is the submission instant (cfg.Now), the baseline the live
	// scenarios/sec rate and ETA are measured against.
	start time.Time

	porLog   []core.WirePorEntry
	porIndex map[uint64]struct{}

	// traced is the result's bugs with their traces, replayed by the first
	// status poll that finds the job done (tracedStatus).
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

func (j *job) done() bool { return j.f.Result() != nil }

// Coordinator serves the lease protocol over HTTP: it hands out each job's
// claims as leases (token, TTL, commit sequence, residuals), keeps each job's
// POR publication log, and serves telemetry. The claims, the hunger and cap
// rules and the merge are each job's core.Frontier. All methods are safe for
// concurrent use; it implements http.Handler.
type Coordinator struct {
	cfg Config
	mux *http.ServeMux

	start time.Time

	mu    sync.Mutex
	jobs  map[string]*job
	order []string
	// wake is closed, and replaced, whenever a parked lease request should
	// look again: a Frontier queued claims or finished (wakeLocked).
	wake      chan struct{}
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
	cfg.LeaseTTL = cmp.Or(cfg.LeaseTTL, 30*time.Second)
	c := &Coordinator{
		cfg:   cfg,
		start: cfg.Now(),
		jobs:  make(map[string]*job),
		wake:  make(chan struct{}),
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
		f:        core.NewFrontier(acc, c.wakeLocked),
		start:    c.cfg.Now(),
		leases:   make(map[string]*lease),
		workers:  make(map[string]struct{}),
		porIndex: make(map[uint64]struct{}),
	}
	c.jobs[j.id] = j
	c.order = append(c.order, j.id)
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
		if st.Result = j.f.Result(); st.Result != nil {
			st.State = JobDone
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
		for _, b := range st.Result.Bugs {
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
	}{st, tracedResult{st.Result, j.traced}}
}

// ---- lease protocol ---------------------------------------------------------

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	rx, ok := readRequest(w, r, &req)
	if !ok {
		return
	}
	c.mu.Lock()
	c.sweepLocked()
	resp, reg := c.grantLocked(&req)
	retryMs := c.cfg.RetryMs
	if resp == nil && c.leaseLiveLocked() {
		// Nothing to grant, but a lease is live: its holder donates half its
		// open work at its next commit once it hears of this worker (the
		// failed take marked it waiting, which makes the Frontier hungry),
		// and the job may be over before a poll interval has passed. Park the
		// request — outside c.mu — until claims are queued or a job finishes,
		// for at most RetryMs.
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
			c.unwaitLocked(req.Worker)
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
		if c.cfg.ShutdownWhenDone && len(c.jobs) > 0 && c.allDoneLocked() {
			resp = &LeaseResponse{Status: StatusShutdown}
		}
	}
	c.mu.Unlock()
	writeResp(w, http.StatusOK, resp, reg, rx)
}

// grantLocked leases the newest queued claim of the first job that has one,
// or returns nil. One claim per lease: a donated claim is half its donor's
// open work and the queue holds at most one per waiting worker, so a batch
// granted to one poller would starve the next.
func (c *Coordinator) grantLocked(req *LeaseRequest) (*LeaseResponse, *obs.Registry) {
	for _, id := range c.order {
		j := c.jobs[id]
		claim, ok := j.f.Take(req.Worker)
		if !ok {
			continue
		}
		c.unwaitLocked(req.Worker) // fed: no longer waiting on any job
		c.nextLease++
		c.nextToken++
		l := &lease{
			// Tokens fence stale workers from expired leases; they are not
			// an authentication mechanism (see docs/ALGORITHM.md).
			id:     fmt.Sprintf("l%d", c.nextLease),
			token:  fmt.Sprintf("t%d", c.nextToken),
			job:    j,
			claims: []core.WireClaim{claim},
		}
		c.renewLocked(l)
		j.leases[l.id] = l
		if req.Worker != "" {
			j.workers[req.Worker] = struct{}{}
			j.acc.SetWorkers(len(j.workers))
		}
		reg := j.reg()
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
				Claims: l.claims,
				TTLMs:  int(c.cfg.LeaseTTL.Milliseconds()),
			},
			Hungry:     j.f.Hungry(),
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

// leaseLiveLocked reports whether some job has a live lease — the only state
// in which work can still appear for an idle worker.
func (c *Coordinator) leaseLiveLocked() bool {
	for _, j := range c.jobs {
		if len(j.leases) > 0 {
			return true
		}
	}
	return false
}

// wakeLocked releases every parked lease request to retry its grant. Every
// job's Frontier calls it when it queues claims or finishes, so no park
// sleeps through either.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// unwaitLocked forgets a waiting worker on every job.
func (c *Coordinator) unwaitLocked(worker string) {
	for _, j := range c.jobs {
		j.f.Unwait(worker)
	}
}

// renewLocked moves l's expiry a TTL ahead (never, when leases never expire).
func (c *Coordinator) renewLocked(l *lease) {
	if c.cfg.LeaseTTL > 0 {
		l.deadline = c.cfg.Now().Add(c.cfg.LeaseTTL)
	}
}

func (c *Coordinator) handleCommit(w http.ResponseWriter, r *http.Request) {
	var req CommitRequest
	rx, ok := readRequest(w, r, &req)
	if !ok {
		return
	}
	if err := req.validate(); err != nil {
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
		writeResp(w, http.StatusConflict, &CommitResponse{Stale: true}, nil, rx)
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
		writeResp(w, http.StatusOK, &ack, reg, rx)
		return
	}
	// Ingest POR entries before snapshotting the response window, so the
	// reply's Por slice excludes this commit's own contributions.
	logBefore := len(j.porLog)
	for _, e := range req.Por {
		if _, seen := j.porIndex[e.Fingerprint()]; !seen {
			j.porIndex[e.Fingerprint()] = struct{}{}
			j.porLog = append(j.porLog, e)
		}
	}
	l.seq = req.Seq
	// The delta is absorbed at once: with seq-gated deltas there is nothing
	// to fold at retire or expiry, and the live telemetry view is simply the
	// registry. Splits and residuals travel in one atomic commit, so the
	// donated options are accounted exactly once: the residuals' limits were
	// already lowered past them by the split.
	requeued := j.f.Commit(req.Delta, req.Splits, req.Residuals, req.Final)
	reg.NoteCommitBatch(int64(req.Delta.Scenarios()))
	if req.Final {
		// A final commit with residuals *releases* the lease (worker drain):
		// the remainder is requeued exactly as TTL expiry would, but at once,
		// so nothing waits for (or depends on) an expiry that may never come.
		if len(req.Residuals) > 0 {
			reg.NoteLeaseReleased(requeued)
			reg.Emit("lease_released", "lease", l.id, "requeued", requeued)
		}
		delete(j.leases, l.id)
	} else {
		l.claims = req.Residuals
		c.renewLocked(l)
	}
	ack := c.commitAckLocked(j, req.PorVersion, logBefore)
	c.mu.Unlock()
	writeResp(w, http.StatusOK, &ack, reg, rx)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	rx, ok := readRequest(w, r, &req)
	if !ok {
		return
	}
	c.mu.Lock()
	c.sweepLocked()
	l := c.findLeaseLocked(r.PathValue("id"), req.Token)
	if l == nil {
		c.mu.Unlock()
		writeResp(w, http.StatusConflict, &HeartbeatResponse{Stale: true}, nil, rx)
		return
	}
	reg := l.job.reg()
	reg.NoteRPC()
	c.renewLocked(l)
	stopped := l.job.f.Stopped()
	c.mu.Unlock()
	writeResp(w, http.StatusOK, &HeartbeatResponse{Stopped: stopped}, reg, rx)
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
		Stopped:    j.f.Stopped(),
		Hungry:     j.f.Hungry(),
		Por:        append([]core.WirePorEntry(nil), j.porLog[porFrom:porTo]...),
		PorVersion: len(j.porLog),
	}
}

// sweepLocked expires overdue leases: everything the dead worker committed
// was already absorbed (seq-gated deltas), so expiry just requeues the last
// residuals — the subtree the worker still owned is re-executed exactly
// once by a future claimant.
func (c *Coordinator) sweepLocked() {
	now := c.cfg.Now()
	for _, id := range c.order {
		j := c.jobs[id]
		for lid, l := range j.leases {
			if l.deadline.IsZero() || !now.After(l.deadline) {
				continue
			}
			delete(j.leases, lid)
			requeued := j.f.Retire(l.claims)
			j.reg().NoteLeaseExpired(requeued)
			j.reg().Emit("lease_expired", "lease", lid, "requeued", requeued)
		}
	}
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
	scen, execs, bugs, queued := j.f.Progress()

	state := "running"
	switch {
	case j.done():
		state = "done"
	case j.f.Stopped():
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
		FrontierLen:  queued,
		MaxDepth:     m.MaxChoiceDepth,
		ActiveLeases: len(j.leases),
		Workers:      int64(len(j.workers)),
		Bugs:         bugs,
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

// readRequest decodes a lease-path request frame, or answers 400 and reports
// false. It returns the body size for wire accounting.
func readRequest(w http.ResponseWriter, r *http.Request, v any) (int, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err == nil {
		err = decodeWire2(body, v)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
	}
	return len(body), err == nil
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

// writeResp encodes a lease-path response frame and writes it. Call sites
// invoke it strictly OUTSIDE the coordinator mutex — encoding under c.mu is
// the contention bug TestCoordinatorEncodesOutsideMutex (contention_test.go)
// pins. reg, when non-nil, accumulates the exchange's wire bytes
// (tx=response, rx=request) into the job's registry.
func writeResp(w http.ResponseWriter, code int, v any, reg *obs.Registry, rx int) {
	bp := wire2Pool.Get().(*[]byte)
	defer wire2Pool.Put(bp)
	enc, err := encodeWire2(*bp, v)
	if err != nil {
		http.Error(w, `{"error":"encode response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", ContentTypeWireV2)
	w.WriteHeader(code)
	w.Write(enc)
	reg.NoteBytes(int64(len(enc)), int64(rx))
	*bp = enc[:0]
}
