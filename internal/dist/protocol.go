// Package dist distributes Jaaru's state-space exploration across
// processes: a coordinator (jaaru-server) owns the global branch frontier,
// the shared caps, and the POR seen-set publication log, and workers
// (jaaru-worker) claim choice-prefix leases over HTTP, explore them with the
// ordinary core.Checker via core.LeaseRunner, and stream back donated splits
// plus order-insensitive stat deltas.
//
// The protocol is built so that worker death is a non-event for
// correctness:
//
//   - Commits carry deltas, gated by sequence number. Every commit carries
//     the lease's WireStats growth since the previous commit, numbered by a
//     per-lease Seq that increases by exactly 1 per commit. The coordinator
//     absorbs a delta into the merged result if and only if Seq advances
//     its per-lease high-water mark; a retried or duplicated commit is
//     acknowledged without being re-absorbed, so delivery retries are
//     idempotent even though the payload is incremental.
//   - Every non-final commit carries the residual claims: the exact
//     unexplored remainder of the lease at that commit. When a
//     lease's TTL expires the coordinator requeues the last residuals —
//     work since the last commit was never committed, so re-executing it on
//     another worker neither loses nor double-counts anything.
//   - Lease tokens fence zombies: a commit bearing a stale token is
//     rejected, so a worker that outlives its own lease expiry cannot race
//     the residuals' new claimant.
//   - A draining worker (SIGTERM) releases its lease: its last commit is
//     final but carries the unexplored residuals, which the coordinator
//     requeues immediately — graceful shutdown loses nothing and never
//     waits for (or depends on) a TTL expiry.
//
// A complete distributed run therefore merges to a Result bit-identical to
// the serial reference, by the same argument as the in-process parallel
// driver (order-insensitive merge + canonical sorts) — including runs where
// workers were killed mid-lease.
//
// Two wire codecs coexist on the same endpoints. v1 is the frozen JSON
// encoding; v2 is a length-prefixed binary encoding (core.WireEncoder)
// that the worker advertises via an Accept header and the coordinator
// answers in kind, so mixed fleets interoperate: every message has the
// same meaning under either codec and the negotiation is per-request.
package dist

import (
	"jaaru/internal/core"
)

// ProgSpec names a guest workload in wire form. The coordinator and the
// workers resolve it independently through a Resolver (the binaries use
// internal/benchlist), so guest code never crosses the wire.
type ProgSpec struct {
	Bench string `json:"bench"`
	N     int    `json:"n,omitempty"`
	Buggy bool   `json:"buggy,omitempty"`
}

// Resolver materializes a guest program from its wire spec.
type Resolver func(ProgSpec) (core.Program, error)

// JobRequest submits a workload: POST /v1/jobs.
type JobRequest struct {
	Spec ProgSpec     `json:"spec"`
	Opts core.Options `json:"opts"`
}

// JobResponse acknowledges a submitted job.
type JobResponse struct {
	ID string `json:"id"`
}

// Job states reported by GET /v1/jobs/{id}.
const (
	JobRunning = "running"
	JobDone    = "done"
)

// JobStatus is the poll response: GET /v1/jobs/{id}. Result is set once
// State is JobDone. In the served JSON each bug of the result also carries a
// "Trace" key: the last jobTraceLen operations of its scenario, replayed by
// the coordinator. A Go client decoding into JobStatus drops it, along with
// the unexported replay vector — such a report prints, but cannot be
// replayed, witnessed or minimized (core.BugReport.Trace returns nil).
type JobStatus struct {
	ID     string       `json:"id"`
	State  string       `json:"state"`
	Result *core.Result `json:"result,omitempty"`
}

// jobTraceLen is the length of the bug traces in the job API's JSON.
const jobTraceLen = 64

// Lease-request outcomes.
const (
	// StatusGranted carries a lease in LeaseResponse.Lease.
	StatusGranted = "granted"
	// StatusIdle means no claimable work right now; poll again after
	// LeaseResponse.RetryMs. While another lease is live the coordinator holds
	// the request for up to its RetryMs before answering so (a donation wakes
	// it), and the hint is then 1 ms: come straight back.
	StatusIdle = "idle"
	// StatusShutdown tells the worker to exit: every submitted job is done
	// and the coordinator was configured to release its fleet.
	StatusShutdown = "shutdown"
)

// LeaseRequest asks for work: POST /v1/lease. PorVersion is the worker's
// cursor into the named job's POR publication log (0 when the worker has
// not seen the job before); the response ships the entries the worker is
// missing.
type LeaseRequest struct {
	Worker     string `json:"worker"`
	JobID      string `json:"job_id,omitempty"`
	PorVersion int    `json:"por_version,omitempty"`
}

// Lease describes one granted unit of work. Claims holds one frontier claim
// per grant (the field is a list on the wire, and core.LeaseRunner runs
// whatever it is handed sequentially on one checker).
type Lease struct {
	ID     string           `json:"id"`
	Token  string           `json:"token"`
	JobID  string           `json:"job_id"`
	Spec   ProgSpec         `json:"spec"`
	Opts   core.Options     `json:"opts"`
	Claims []core.WireClaim `json:"claims"`
	// TTLMs echoes the job's lease TTL (-1: leases never expire).
	TTLMs int `json:"ttl_ms"`
}

// LeaseResponse answers a lease request.
type LeaseResponse struct {
	Status  string `json:"status"`
	RetryMs int    `json:"retry_ms,omitempty"`
	Lease   *Lease `json:"lease,omitempty"`
	// Hungry reports whether the coordinator's queue is low (donate splits).
	Hungry bool `json:"hungry,omitempty"`
	// Por / PorVersion ship the publication-log entries the worker's cursor
	// was missing, and the new cursor.
	Por        []core.WirePorEntry `json:"por,omitempty"`
	PorVersion int                 `json:"por_version,omitempty"`
}

// CommitRequest publishes lease progress: POST /v1/leases/{id}/commit.
// Seq starts at 1 and increases by 1 per commit of the lease; the
// coordinator ignores (but acknowledges) sequence numbers it has already
// applied, making delivery retries safe.
type CommitRequest struct {
	Token string `json:"token"`
	Seq   int64  `json:"seq"`
	// Splits are claims donated to the frontier: at most one per commit, half
	// of the open sibling options the lease still held (core's chooser.split).
	Splits []core.WireClaim `json:"splits,omitempty"`
	// Residuals are the unexplored remainder of the lease as of this commit.
	// Required on non-final commits (the in-progress claim's snapshot plus
	// any granted claims not yet started). On a final commit an empty list
	// means the lease is fully explored; a non-empty one
	// *releases* the lease (a draining worker handing back its remainder for
	// immediate requeue).
	Residuals []core.WireClaim `json:"residuals,omitempty"`
	// Delta is the lease's stats growth since its previous commit (the full
	// stats on Seq 1). The coordinator absorbs it only when Seq advances.
	Delta *core.WireStats `json:"delta"`
	// Final retires the lease: its claims are fully explored (or abandoned
	// after an engine error, marked by Delta.Truncated), or — with residuals
	// attached — released by a draining worker.
	Final bool `json:"final,omitempty"`
	// Por / PorVersion ship newly published local POR entries and the
	// worker's cursor into the coordinator log.
	Por        []core.WirePorEntry `json:"por,omitempty"`
	PorVersion int                 `json:"por_version,omitempty"`
}

// CommitResponse acknowledges a commit.
type CommitResponse struct {
	// Stale reports a dead token: the lease expired (or was never granted)
	// and the worker must abandon it without retrying.
	Stale bool `json:"stale,omitempty"`
	// Stopped tells the worker a global cap ended the job: finish with a
	// final commit instead of exploring further.
	Stopped bool `json:"stopped,omitempty"`
	Hungry  bool `json:"hungry,omitempty"`
	// Por / PorVersion ship coordinator-log entries the worker was missing
	// (excluding the ones this very commit contributed).
	Por        []core.WirePorEntry `json:"por,omitempty"`
	PorVersion int                 `json:"por_version,omitempty"`
}

// HeartbeatRequest renews a lease between commits:
// POST /v1/leases/{id}/heartbeat.
type HeartbeatRequest struct {
	Token string `json:"token"`
}

// HeartbeatResponse acknowledges a heartbeat.
type HeartbeatResponse struct {
	Stale   bool `json:"stale,omitempty"`
	Stopped bool `json:"stopped,omitempty"`
}

// errorResponse is the JSON body of non-2xx replies. Errors are always
// JSON regardless of the negotiated codec, so a v1 peer can always read a
// v2-capable peer's rejection.
type errorResponse struct {
	Error string `json:"error"`
}

// Wire codec content types. v1 (JSON) is the default and the fallback; v2
// is the binary framing from codec.go. The worker advertises v2 support
// with "Accept: application/x-jaaru-wire2" on JSON requests; once the
// coordinator answers in v2 the worker switches its requests over.
const (
	ContentTypeJSON   = "application/json"
	ContentTypeWireV2 = "application/x-jaaru-wire2"
)
