package core

// Bug forensics: BuildWitness re-runs the one scenario that manifested a bug
// with the forensics hooks armed and assembles the structured Witness value
// defined in internal/forensics — the machine-checkable elaboration of the
// paper's debugging support. Three hook families feed the recorder:
//
//   - the per-operation recorder (Context.op / Checker.traceOp) numbers every
//     guest operation and captures the full trace, never ring-truncated;
//   - the tso.Probe reports TSO state transitions — store-buffer evictions
//     and buffered writebacks — attributed to the issuing operation via the
//     Entry.Op stamp;
//   - the pmem interval tracer reports every effective interval refinement
//     with its provenance, feeding both the per-line timelines and the
//     per-load refinement steps.
//
// All hooks are nil-guarded on the exploration hot paths (c.wrec == nil
// outside witness replays), following the obs.Collector discipline: disabled
// forensics costs one branch per hook.

import (
	"sort"
	"strconv"

	"jaaru/internal/forensics"
	"jaaru/internal/pmem"
	"jaaru/internal/tso"
)

// witnessRecorder accumulates forensics data during one witness replay.
type witnessRecorder struct {
	c *Checker

	// opSeq is the index of the operation currently executing (Context.op
	// order, across all executions of the scenario); -1 before the first.
	opSeq int

	ops   []forensics.Op
	opPos map[int]int // Op.Index -> position in ops

	timelines []forensics.LineTimeline
	linePos   map[lineKey]int // (exec, line) -> position in timelines

	loads    []forensics.LoadResolution
	failures []forensics.FailureMark

	// decOps maps a choice-vector position to the operation that consumed
	// the decision.
	decOps map[int]int

	// openLoad is the resolution currently being assembled in resolveByte, so
	// the interval tracer can attach refinement steps to it.
	openLoad *forensics.LoadResolution

	// reason is beginLoad's scratch for building candidate verdicts.
	reason []byte
}

type lineKey struct {
	exec int
	line pmem.Addr
}

func newWitnessRecorder(c *Checker) *witnessRecorder {
	return &witnessRecorder{
		c:       c,
		opSeq:   -1,
		opPos:   make(map[int]int),
		linePos: make(map[lineKey]int),
		decOps:  make(map[int]int),
	}
}

// wrecOp returns the current operation index for tso.Entry stamping (0 when
// no recorder is active: the stamp is only consumed by the probe, which is
// only attached alongside a recorder).
func (c *Checker) wrecOp() int {
	if c.wrec == nil {
		return 0
	}
	return c.wrec.opSeq
}

// wrecDecision records that the most recently consumed chooser decision
// belongs to the current operation. Call immediately after chooser.choose.
func (c *Checker) wrecDecision() {
	if c.wrec != nil {
		c.wrec.decOps[c.chooser.cursor-1] = c.wrec.opSeq
	}
}

// noteOp appends one traced operation (called from Checker.traceOp).
func (r *witnessRecorder) noteOp(threadID int, kind string, a pmem.Addr, size int, val uint64) {
	r.opPos[r.opSeq] = len(r.ops)
	r.ops = append(r.ops, forensics.Op{
		Index:  r.opSeq,
		Exec:   r.c.stack.Top().ID,
		Thread: threadID,
		Kind:   kind,
		Addr:   uint64(a),
		Size:   size,
		Val:    val,
	})
}

func (r *witnessRecorder) addTransition(opIdx int, phase string, s pmem.Seq) {
	pos, ok := r.opPos[opIdx]
	if !ok {
		return
	}
	r.ops[pos].Transitions = append(r.ops[pos].Transitions,
		forensics.Transition{Phase: phase, Op: r.opSeq, Seq: uint64(s)})
}

// probe builds the tso.Probe that feeds this recorder.
func (r *witnessRecorder) probe() *tso.Probe {
	return &tso.Probe{
		OnEvict: func(e tso.Entry, s pmem.Seq) {
			switch e.Kind {
			case tso.Store:
				r.addTransition(e.Op, "cache", s)
				r.lineEvent(e.Addr.Line(), "store", s)
			case tso.CLFlush:
				r.addTransition(e.Op, "cache", s)
				r.lineEvent(e.Addr.Line(), "clflush", s)
			case tso.CLFlushOpt:
				r.addTransition(e.Op, "flush-buffer", s)
			case tso.SFence:
				r.addTransition(e.Op, "fence", s)
			}
		},
		OnWriteback: func(line pmem.Addr, s pmem.Seq, op int) {
			r.addTransition(op, "persist-bound", s)
			r.lineEvent(line, "writeback", s)
		},
	}
}

// lineBounds reads a line's interval without materializing it (a vacuous
// line reads as [0, ∞), exactly what CacheLine would create).
func (r *witnessRecorder) lineBounds(exec int, line pmem.Addr) (begin, end uint64) {
	e := r.c.stack.At(exec)
	if !e.LineKnown(line) {
		return 0, uint64(pmem.SeqInf)
	}
	iv := e.CacheLine(line)
	return uint64(iv.Begin), uint64(iv.End)
}

// lineEvent appends a probe-sourced event (store/clflush/writeback) to the
// current execution's timeline for line, reading the post-effect interval.
func (r *witnessRecorder) lineEvent(line pmem.Addr, kind string, s pmem.Seq) {
	exec := r.c.stack.Top().ID
	begin, end := r.lineBounds(exec, line)
	r.appendLineEvent(exec, line, forensics.LineEvent{
		Op: r.opSeq, Kind: kind, Seq: uint64(s), Begin: begin, End: end})
}

func (r *witnessRecorder) appendLineEvent(exec int, line pmem.Addr, ev forensics.LineEvent) {
	k := lineKey{exec: exec, line: line}
	pos, ok := r.linePos[k]
	if !ok {
		pos = len(r.timelines)
		r.linePos[k] = pos
		r.timelines = append(r.timelines,
			forensics.LineTimeline{Exec: exec, Line: uint64(line)})
	}
	r.timelines[pos].Events = append(r.timelines[pos].Events, ev)
}

// intervalEvent is the pmem tracer callback. Flush raises are already on the
// timeline via the probe (which reads the post-effect interval); refinements
// are recorded here, and additionally attached to the load being resolved.
func (r *witnessRecorder) intervalEvent(ev pmem.IntervalEvent) {
	var kind, step string
	switch ev.Kind {
	case pmem.RefineRaise:
		kind, step = "refine-raise", "raise-begin"
	case pmem.RefineLower:
		kind, step = "refine-lower", "lower-end"
	default:
		return
	}
	r.appendLineEvent(ev.Exec, ev.Line, forensics.LineEvent{
		Op: r.opSeq, Kind: kind, Seq: uint64(ev.At),
		Begin: uint64(ev.After.Begin), End: uint64(ev.After.End)})
	if r.openLoad != nil {
		r.openLoad.Refined = append(r.openLoad.Refined, forensics.RefineStep{
			Exec: ev.Exec, Line: uint64(ev.Line), Kind: step, At: uint64(ev.At),
			Begin: uint64(ev.After.Begin), End: uint64(ev.After.End)})
	}
}

func (r *witnessRecorder) noteFailure(point int) {
	r.failures = append(r.failures, forensics.FailureMark{
		Op: r.opSeq, Point: point, Exec: r.c.stack.Top().ID})
}

// beginLoad builds the candidate verdict list for one refined load byte,
// mirroring the admission rule of ReadPreFailure (Figure 9) over every
// pre-failure store — excluded stores included, each with the interval
// constraint that decided it.
func (r *witnessRecorder) beginLoad(t *thread, a pmem.Addr) *forensics.LoadResolution {
	top := r.c.stack.Top()
	res := &forensics.LoadResolution{
		Op:     r.opSeq,
		Exec:   top.ID,
		Thread: t.id,
		Addr:   uint64(a),
		Loc:    r.c.loadLoc(),
	}
	settled := false
	var settledExec int
	var settledSeq uint64
	b := r.reason[:0]
	for id := top.ID - 1; id >= 0; id-- {
		e := r.c.stack.At(id)
		begin, end := r.lineBounds(id, a.Line())
		e.ForEachStoreNewest(a, func(bs pmem.ByteStore) bool {
			sc := forensics.StoreCandidate{
				Exec: id, Seq: uint64(bs.Seq), Val: uint64(bs.Val)}
			seq := uint64(bs.Seq)
			switch b = b[:0]; {
			case settled && settledExec == id:
				b = append(b, "excluded: older than the store guaranteed persisted at σ="...)
				b = strconv.AppendUint(b, settledSeq, 10)
			case settled:
				b = appendUnreachable(b, settledExec)
			case seq >= end:
				b = append(b, "excluded: σ="...)
				b = strconv.AppendUint(b, seq, 10)
				b = append(b, " ≥ End="...)
				b = forensics.AppendSeq(b, end)
				b = append(b, " — the line's last writeback is proven earlier"...)
			case seq <= begin:
				sc.Admitted = true
				b = append(b, "admitted: newest store with σ="...)
				b = strconv.AppendUint(b, seq, 10)
				b = append(b, " ≤ Begin="...)
				b = strconv.AppendUint(b, begin, 10)
				b = append(b, " — value guaranteed persisted"...)
				settled, settledExec, settledSeq = true, id, seq
			default:
				sc.Admitted = true
				b = append(b, "admitted: Begin="...)
				b = strconv.AppendUint(b, begin, 10)
				b = append(b, " < σ="...)
				b = strconv.AppendUint(b, seq, 10)
				b = append(b, " < End="...)
				b = forensics.AppendSeq(b, end)
				b = append(b, " — inside the writeback window"...)
			}
			sc.Reason = string(b)
			res.Candidates = append(res.Candidates, sc)
			return true
		})
	}
	initial := forensics.StoreCandidate{Exec: pmem.InitialExec}
	if settled {
		initial.Reason = string(appendUnreachable(b[:0], settledExec))
	} else {
		initial.Admitted = true
		initial.Reason = "admitted: initial pool contents — no execution settles the line"
	}
	r.reason = b
	res.Candidates = append(res.Candidates, initial)
	return res
}

// appendUnreachable appends the verdict of a candidate below the execution
// that settled the byte.
func appendUnreachable(b []byte, settledExec int) []byte {
	b = append(b, "unreachable: execution "...)
	b = strconv.AppendInt(b, int64(settledExec), 10)
	return append(b, " already guarantees a persisted value"...)
}

// finishLoad marks the chosen candidate and files the resolution.
func (r *witnessRecorder) finishLoad(res *forensics.LoadResolution, chosen pmem.Candidate) {
	for i := range res.Candidates {
		sc := &res.Candidates[i]
		if sc.Exec == chosen.Exec && sc.Seq == uint64(chosen.Seq) {
			sc.Chosen = true
			res.Chosen = i
			break
		}
	}
	r.loads = append(r.loads, *res)
}

// witness assembles the recorder's data into the final value.
func (r *witnessRecorder) witness(b *BugReport, reproduced bool) *forensics.Witness {
	c := r.c
	w := &forensics.Witness{
		Program: c.prog.Name,
		Bug: forensics.Bug{
			Type:      b.Type.String(),
			Message:   b.Message,
			Execution: b.Execution,
			Choices:   b.Choices,
		},
		Reproduced: reproduced,
		Ops:        r.ops,
		Failures:   r.failures,
		Loads:      r.loads,
	}
	for i, p := range c.chooser.points {
		d := forensics.Decision{
			Index: i, Kind: p.kind.String(), Chosen: p.idx, Options: p.n, Op: -1}
		if op, ok := r.decOps[i]; ok {
			d.Op = op
		}
		w.Decisions = append(w.Decisions, d)
	}
	w.Lines = r.timelines
	sort.Slice(w.Lines, func(i, j int) bool {
		if w.Lines[i].Exec != w.Lines[j].Exec {
			return w.Lines[i].Exec < w.Lines[j].Exec
		}
		return w.Lines[i].Line < w.Lines[j].Line
	})
	return w
}

// BuildWitness replays the failure scenario recorded in b — prog and opts
// must match the exploration that produced it — with the forensics hooks
// armed, and returns the structured witness: annotated operation trace,
// per-cache-line persistence timelines, and per-load read-from resolutions.
//
// The replay always re-executes the guest from scratch (newReplayChecker) —
// a restored snapshot would skip the pre-failure operations the witness needs
// to show, and the recorder must observe every operation — and the recorder
// keeps the complete operation list itself, so the checker carries no trace
// ring. A guest whose choice shape changed since the exploration
// (nondeterminism outside the simulated pool) yields a witness with
// Reproduced == false carrying whatever replay was observed; a report whose
// choice vector was lost (BugReport.replayable) is not replayed at all.
func BuildWitness(prog Program, opts Options, b *BugReport) *forensics.Witness {
	opts.FlagMultiRF = true
	c := newReplayChecker(prog, opts, b.replay, 0)
	c.wrec = newWitnessRecorder(c)
	c.sched.probe = c.wrec.probe()
	if b.replayable() {
		c.replayScenario()
	}
	_, reproduced := c.bugIndex[b.key()]
	w := c.wrec.witness(b, reproduced)
	if c.reg != nil {
		c.reg.Emit("witness_build", "program", prog.Name,
			"type", b.Type.String(), "message", b.Message,
			"ops", len(w.Ops), "loads", len(w.Loads), "lines", len(w.Lines),
			"reproduced", reproduced)
	}
	return w
}
