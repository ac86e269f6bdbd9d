package core

import (
	"fmt"
	"slices"
	"time"

	"jaaru/internal/obs"
)

// Wire types for distributed exploration (internal/dist). A choice prefix is
// a self-contained, serializable unit of work — the property the whole
// checker is built on — so the distributed protocol is small: claims (branch
// prefixes with exploration limits), per-lease stats deltas, and POR
// seen-set publication entries. On the lease path they travel in the binary
// codec of wirev2.go. The commit protocol built on them (seq-gated deltas,
// residual claims, expiry) is documented once, in internal/dist's package
// doc; DiffWireStats says why absorbed deltas re-sum to the cumulative stats
// exactly.
//
// POR clamps interact with residuals subtly but safely: when porPruneSweep
// clamps a fail decision (limit 2 -> 1) it applies the published delta to
// the worker's local stats, and the next commit ships both the lowered limit
// and the applied delta together, atomically. A claimant of the residual
// therefore never re-applies a committed clamp; clamps applied after the
// last commit die with the lease and are re-derived by the claimant.

// WirePoint is one recorded nondeterministic decision in wire form.
type WirePoint struct {
	Kind string `json:"kind"` // "fail" | "rf" | "evict"
	N    int    `json:"n"`
	Idx  int    `json:"idx"`
}

// WireMemo is a failure-decision POR memo in wire form: the canonical
// fingerprint of the crash state at the point, plus the prefix cost
// (steps and cleared canonical counters) of reaching it from scenario start.
// Memos are an optimization — a claim without them is explored physically
// with identical results — so decoders tolerate their absence.
type WireMemo struct {
	FP    uint64  `json:"fp"`
	Steps int64   `json:"steps"`
	Vec   []int64 `json:"vec,omitempty"`
}

// WireClaim is a unit of leased work: a choice vector with per-point
// exploration limits. Limits == nil means a frozen vector (every point fixed
// at its recorded option — the empty root claim is the one such claim in
// use); a donated split or a residual carries Idx < Limits[i] <= N at points
// whose sibling options come with it.
type WireClaim struct {
	Points []WirePoint `json:"points,omitempty"`
	Limits []int       `json:"limits,omitempty"`
	Memos  []*WireMemo `json:"memos,omitempty"`
}

func kindFromName(s string) (choiceKind, bool) {
	switch s {
	case "fail":
		return chooseFail, true
	case "rf":
		return chooseReadFrom, true
	case "evict":
		return chooseEvict, true
	}
	return 0, false
}

func encodePoints(pts []choicePoint) []WirePoint {
	if len(pts) == 0 {
		return nil
	}
	out := make([]WirePoint, len(pts))
	for i, p := range pts {
		out[i] = WirePoint{Kind: p.kind.String(), N: p.n, Idx: p.idx}
	}
	return out
}

// maxWireOptions bounds a wire point's option count. A real point has at most
// as many options as there are pre-failure stores; the bound keeps
// chooser.split's sum of open options across a claim from overflowing.
const maxWireOptions = 1 << 30

// validate checks one wire point: a known kind and 0 <= Idx < N <= maxWireOptions.
func (wp WirePoint) validate(i int) error {
	if _, ok := kindFromName(wp.Kind); !ok {
		return fmt.Errorf("point %d: unknown kind %q", i, wp.Kind)
	}
	if wp.N > maxWireOptions {
		return fmt.Errorf("point %d: %d options, more than %d", i, wp.N, maxWireOptions)
	}
	if wp.N <= 0 || wp.Idx < 0 || wp.Idx >= wp.N {
		return fmt.Errorf("point %d: idx %d out of range [0,%d)", i, wp.Idx, wp.N)
	}
	return nil
}

func compilePoints(wps []WirePoint) ([]choicePoint, error) {
	if len(wps) == 0 {
		return nil, nil
	}
	out := make([]choicePoint, len(wps))
	for i, wp := range wps {
		if err := wp.validate(i); err != nil {
			return nil, err
		}
		k, _ := kindFromName(wp.Kind)
		out[i] = choicePoint{kind: k, n: wp.N, idx: wp.Idx}
	}
	return out, nil
}

// encodeClaim serializes a chooser claim.
func encodeClaim(br branch) WireClaim {
	w := WireClaim{Points: encodePoints(br.points)}
	if br.limits != nil {
		w.Limits = append([]int(nil), br.limits...)
	}
	if slices.ContainsFunc(br.memos, func(m *failMemo) bool { return m != nil }) {
		w.Memos = make([]*WireMemo, len(br.memos))
		for i, m := range br.memos {
			if m == nil {
				continue
			}
			w.Memos[i] = &WireMemo{FP: m.fp, Steps: m.steps, Vec: vecOrNil(m.vec)}
		}
	}
	return w
}

// compile validates the claim and lowers it to chooser form.
func (w WireClaim) compile() (branch, error) {
	if err := w.Validate(); err != nil {
		return branch{}, err
	}
	var br branch
	br.points, _ = compilePoints(w.Points)
	if w.Limits != nil {
		br.limits = append([]int(nil), w.Limits...)
	}
	if w.Memos != nil {
		br.memos = make([]*failMemo, len(w.Memos))
		for i, wm := range w.Memos {
			if wm == nil {
				continue
			}
			br.memos[i] = &failMemo{fp: wm.FP, steps: wm.Steps}
			if wm.Vec != nil {
				br.memos[i].vec, _ = vecFromSlice(wm.Vec)
			}
		}
	}
	return br, nil
}

// compileBranches compiles a claim batch.
func compileBranches(ws []WireClaim) ([]branch, error) {
	brs := make([]branch, len(ws))
	for i := range ws {
		var err error
		if brs[i], err = ws[i].compile(); err != nil {
			return nil, err
		}
	}
	return brs, nil
}

// Validate reports whether the claim is well-formed (decodable). It checks
// the wire form in place and allocates nothing on a valid claim: the
// coordinator calls it on every split and residual of every commit, and a
// residual is as deep as the guest's failure-point chain.
func (w WireClaim) Validate() error {
	for i, wp := range w.Points {
		if err := wp.validate(i); err != nil {
			return err
		}
	}
	if w.Limits != nil {
		if len(w.Limits) != len(w.Points) {
			return fmt.Errorf("claim has %d limits for %d points", len(w.Limits), len(w.Points))
		}
		for i, lim := range w.Limits {
			if p := w.Points[i]; lim <= p.Idx || lim > p.N {
				return fmt.Errorf("point %d: limit %d out of range (%d,%d]", i, lim, p.Idx, p.N)
			}
		}
	}
	if w.Memos != nil {
		if len(w.Memos) != len(w.Points) {
			return fmt.Errorf("claim has %d memos for %d points", len(w.Memos), len(w.Points))
		}
		for i, wm := range w.Memos {
			if wm == nil {
				continue
			}
			if w.Points[i].Kind != chooseFail.String() {
				return fmt.Errorf("point %d: memo on non-fail point", i)
			}
			if wm.Vec != nil && len(wm.Vec) != obs.NumCounters {
				return fmt.Errorf("point %d: memo vec has %d counters", i, len(wm.Vec))
			}
		}
	}
	return nil
}

// WireBug is a BugReport in wire form, including the replay vector so the
// coordinator's merged result supports Replay/Trace/Witness/Minimize.
type WireBug struct {
	Type      int         `json:"type"`
	Message   string      `json:"message"`
	Execution int         `json:"execution"`
	Scenario  int         `json:"scenario"`
	Count     int         `json:"count"`
	Choices   string      `json:"choices"`
	Replay    []WirePoint `json:"replay,omitempty"`
}

// WireObs is one collector shard in wire form: dense counter and peak
// vectors (index = obs.Counter / obs.Peak), plus the shard's latency
// histograms in sparse form.
type WireObs struct {
	Counters []int64    `json:"counters,omitempty"`
	Peaks    []int64    `json:"peaks,omitempty"`
	Hists    []WireHist `json:"hists,omitempty"`
}

// WireHist is one timer histogram in sparse wire form: only populated
// buckets ship, as ascending [bucket index, count] pairs against the fixed
// layout of obs.Histogram. The fold at the coordinator is bucket-wise
// addition; delta commits ship only the bucket growth since the lease's
// previous commit, and seq-gated absorption keeps duplicate deliveries
// from being added twice.
type WireHist struct {
	Timer   int        `json:"timer"`
	Count   int64      `json:"count"`
	Sum     int64      `json:"sum"`
	Buckets [][2]int64 `json:"buckets,omitempty"`
}

// encodeHists converts a shard's histogram snapshots to sparse wire form,
// skipping empty timers.
func encodeHists(v obs.HistVec) []WireHist {
	var out []WireHist
	for t := range v {
		s := v[t]
		if s.Count == 0 {
			continue
		}
		wh := WireHist{Timer: t, Count: s.Count, Sum: s.Sum}
		for i, n := range s.Counts {
			if n != 0 {
				wh.Buckets = append(wh.Buckets, [2]int64{int64(i), n})
			}
		}
		out = append(out, wh)
	}
	return out
}

// validate checks one wire histogram's shape: timer and bucket indexes in
// range, ascending buckets, positive per-bucket counts that sum to Count.
func (h *WireHist) validate() error {
	if h.Timer < 0 || h.Timer >= obs.NumTimers {
		return fmt.Errorf("hist timer %d out of range [0,%d)", h.Timer, obs.NumTimers)
	}
	if h.Count < 0 || h.Sum < 0 {
		return fmt.Errorf("hist %s: negative count/sum (%d/%d)", obs.Timer(h.Timer), h.Count, h.Sum)
	}
	prev, total := int64(-1), int64(0)
	for _, b := range h.Buckets {
		idx, n := b[0], b[1]
		if idx <= prev || idx >= int64(obs.NumHistBuckets) {
			return fmt.Errorf("hist %s: bucket index %d out of order or range", obs.Timer(h.Timer), idx)
		}
		if n <= 0 {
			return fmt.Errorf("hist %s: bucket %d has non-positive count %d", obs.Timer(h.Timer), idx, n)
		}
		prev, total = idx, total+n
	}
	if total != h.Count {
		return fmt.Errorf("hist %s: bucket counts sum to %d, want count %d", obs.Timer(h.Timer), total, h.Count)
	}
	return nil
}

// snapshot expands the sparse wire form back into a mergeable snapshot.
func (h *WireHist) snapshot() obs.HistSnapshot {
	s := obs.HistSnapshot{Count: h.Count, Sum: h.Sum}
	if n := len(h.Buckets); n > 0 {
		s.Counts = make([]int64, h.Buckets[n-1][0]+1)
		for _, b := range h.Buckets {
			s.Counts[b[0]] = b[1]
		}
	}
	return s
}

// WireStats is a batch of exploration stats: everything the coordinator's
// deterministic merge consumes. A worker exports its lease's *cumulative*
// stats (exportWireStats) and ships the *delta* against its previous commit
// (DiffWireStats); the coordinator absorbs each delta exactly once, gated
// by the commit sequence number, which is what makes retries and duplicate
// deliveries idempotent.
type WireStats struct {
	Scenarios  int         `json:"scenarios"`
	ExecsPost  int         `json:"execs_post"`
	FpointsPre int         `json:"fpoints_pre"`
	Steps      int64       `json:"steps"`
	MaxRF      int         `json:"max_rf"`
	NewPoints  [3]int      `json:"new_points"`
	Truncated  bool        `json:"truncated,omitempty"`
	Bugs       []WireBug   `json:"bugs,omitempty"`
	MultiRF    []MultiRF   `json:"multi_rf,omitempty"`
	PerfIssues []PerfIssue `json:"perf_issues,omitempty"`
	Obs        *WireObs    `json:"obs,omitempty"`
}

// Validate reports whether the stats are well-formed (mergeable): counts
// non-negative, bug replay vectors decodable, obs counter vector the right
// width, histograms well-shaped. The coordinator calls it at commit ingest,
// so a version-skewed or buggy worker is rejected with a client error
// instead of corrupting the merge.
func (ws *WireStats) Validate() error {
	_, err := compileStats(ws)
	return err
}

// BugKeys returns the canonical dedup key of every bug in the stats — the
// coordinator's cap accounting dedupes on these before counting.
func (ws *WireStats) BugKeys() []string {
	keys := make([]string, 0, len(ws.Bugs))
	for i := range ws.Bugs {
		keys = append(keys, ws.Bugs[i].key())
	}
	return keys
}

// key is BugReport.key of the bug.
func (b *WireBug) key() string { return fmt.Sprintf("%d|%s", b.Type, b.Message) }

func vecToSlice(v obs.CounterVec) []int64 {
	out := make([]int64, len(v))
	copy(out, v[:])
	return out
}

func vecFromSlice(s []int64) (obs.CounterVec, bool) {
	var v obs.CounterVec
	if len(s) != len(v) {
		return v, false
	}
	copy(v[:], s)
	return v, true
}

// vecOrNil is v as a slice, or nil when it is all zero (the wire omits it).
func vecOrNil(v obs.CounterVec) []int64 {
	if v == (obs.CounterVec{}) {
		return nil
	}
	return vecToSlice(v)
}

// exportWireStats snapshots the checker's cumulative stats (and its
// observability shard, when attached) as a WireStats. Map-backed findings
// are emitted in sorted key order so payloads are deterministic.
func (c *Checker) exportWireStats() *WireStats {
	c.foldChooserStats()
	ws := &WireStats{
		Scenarios:  c.scenarios,
		ExecsPost:  c.execsPost,
		FpointsPre: c.fpointsPre,
		Steps:      c.totalSteps,
		MaxRF:      c.maxRF,
		NewPoints:  c.newPoints,
		Truncated:  c.truncated,
	}
	for _, b := range c.bugs {
		ws.Bugs = append(ws.Bugs, WireBug{
			Type:      int(b.Type),
			Message:   b.Message,
			Execution: b.Execution,
			Scenario:  b.Scenario,
			Count:     b.Count,
			Choices:   b.Choices,
			Replay:    encodePoints(b.replay),
		})
	}
	for _, m := range sortedMultiRF(c.multiRF) {
		cm := *m
		cm.Values = append([]string(nil), m.Values...)
		ws.MultiRF = append(ws.MultiRF, cm)
	}
	for _, p := range sortedPerfIssues(c.perfIssues) {
		ws.PerfIssues = append(ws.PerfIssues, *p)
	}
	if c.col != nil {
		ws.Obs = &WireObs{
			Counters: vecToSlice(c.col.Counters()),
			Peaks:    c.col.PeakValues(),
			Hists:    encodeHists(c.col.HistSnapshots()),
		}
	}
	return ws
}

// compileStats validates a WireStats and lowers it into a mergeable stats
// value (the obs shard, validated here, is folded by MergeAcc.Absorb).
func compileStats(ws *WireStats) (*stats, error) {
	if ws.Scenarios < 0 || ws.ExecsPost < 0 || ws.FpointsPre < 0 {
		return nil, fmt.Errorf("negative counts (scenarios %d, execs %d, fpoints %d)",
			ws.Scenarios, ws.ExecsPost, ws.FpointsPre)
	}
	if ws.Obs != nil {
		if len(ws.Obs.Counters) != obs.NumCounters {
			return nil, fmt.Errorf("obs counters: got %d values, want %d", len(ws.Obs.Counters), obs.NumCounters)
		}
		for i := range ws.Obs.Hists {
			if err := ws.Obs.Hists[i].validate(); err != nil {
				return nil, err
			}
		}
	}
	var s stats
	s.initStats()
	s.scenarios = ws.Scenarios
	s.execsPost = ws.ExecsPost
	s.fpointsPre = ws.FpointsPre
	s.totalSteps = ws.Steps
	s.maxRF = ws.MaxRF
	s.newPoints = ws.NewPoints
	s.truncated = ws.Truncated
	for i := range ws.Bugs {
		wb := &ws.Bugs[i]
		replay, err := compilePoints(wb.Replay)
		if err != nil {
			return nil, fmt.Errorf("bug %d replay: %v", i, err)
		}
		s.mergeBug(&BugReport{
			Type:      BugType(wb.Type),
			Message:   wb.Message,
			Execution: wb.Execution,
			Scenario:  wb.Scenario,
			Count:     wb.Count,
			Choices:   wb.Choices,
			replay:    replay,
		})
	}
	for i := range ws.MultiRF {
		m := ws.MultiRF[i]
		m.Values = append([]string(nil), ws.MultiRF[i].Values...)
		s.mergeMultiRF(m.Loc, &m)
	}
	for i := range ws.PerfIssues {
		p := ws.PerfIssues[i]
		s.mergePerfIssue(perfKey(p.Kind, p.Loc), &p)
	}
	return &s, nil
}

// ---- Delta commits ----------------------------------------------------------

// DiffWireStats returns the delta between two cumulative snapshots of the
// same lease: what changed since prev (the previously committed snapshot;
// nil means "everything", the first commit's baseline). The delta is built
// so that absorbing every delta of a lease in sequence through the ordinary
// merge reproduces exactly the state absorbing the final cumulative
// snapshot once would have:
//
//   - Summed quantities (scenarios, executions, steps, new points, obs
//     counters, histogram buckets) ship as differences — valid because every
//     one of them is nondecreasing within a worker.
//   - Max-joined quantities (FpointsPre, MaxRF, obs peaks) and the OR-joined
//     Truncated flag ship cumulatively; re-joining them per delta is
//     idempotent.
//   - Keyed findings (bugs by type+message, flagged loads by location, perf
//     issues by kind+location) ship only when their count grew, carrying the
//     count growth plus the *current* canonical representative. The
//     within-worker record paths (recordBug, flagMultiRF, recordPerfIssue)
//     update representatives with the same semilattice join the merge
//     applies and only alongside a count increment, so joining each delta's
//     representative converges to the final cumulative representative.
func DiffWireStats(cur, prev *WireStats) *WireStats {
	if prev == nil {
		return cur
	}
	d := &WireStats{
		Scenarios:  cur.Scenarios - prev.Scenarios,
		ExecsPost:  cur.ExecsPost - prev.ExecsPost,
		FpointsPre: cur.FpointsPre,
		Steps:      cur.Steps - prev.Steps,
		MaxRF:      cur.MaxRF,
		Truncated:  cur.Truncated,
	}
	for k := range cur.NewPoints {
		d.NewPoints[k] = cur.NewPoints[k] - prev.NewPoints[k]
	}
	d.Bugs = grownSince(cur.Bugs, prev.Bugs, (*WireBug).key, func(b *WireBug) *int { return &b.Count })
	d.MultiRF = grownSince(cur.MultiRF, prev.MultiRF,
		func(m *MultiRF) string { return m.Loc }, func(m *MultiRF) *int { return &m.Count })
	d.PerfIssues = grownSince(cur.PerfIssues, prev.PerfIssues,
		func(p *PerfIssue) string { return perfKey(p.Kind, p.Loc) }, func(p *PerfIssue) *int { return &p.Count })
	if cur.Obs != nil {
		d.Obs = diffWireObs(cur.Obs, prev.Obs)
	}
	return d
}

// grownSince returns the keyed findings of cur whose count grew since prev,
// each carrying its growth as its count.
func grownSince[T any](cur, prev []T, key func(*T) string, count func(*T) *int) []T {
	was := make(map[string]int, len(prev))
	for i := range prev {
		was[key(&prev[i])] = *count(&prev[i])
	}
	var out []T
	for _, e := range cur {
		if grown := *count(&e) - was[key(&e)]; grown > 0 {
			*count(&e) = grown
			out = append(out, e)
		}
	}
	return out
}

// diffWireObs diffs two cumulative shard snapshots: counter and histogram
// growth ships as differences, peaks ship cumulatively (max-join).
func diffWireObs(cur, prev *WireObs) *WireObs {
	if prev == nil {
		return cur
	}
	out := &WireObs{
		Counters: make([]int64, len(cur.Counters)),
		Peaks:    append([]int64(nil), cur.Peaks...),
	}
	for i, v := range cur.Counters {
		if i < len(prev.Counters) {
			v -= prev.Counters[i]
		}
		out.Counters[i] = v
	}
	prevH := make(map[int]*WireHist, len(prev.Hists))
	for i := range prev.Hists {
		prevH[prev.Hists[i].Timer] = &prev.Hists[i]
	}
	for i := range cur.Hists {
		h := cur.Hists[i]
		p := prevH[h.Timer]
		if p == nil {
			h.Buckets = append([][2]int64(nil), h.Buckets...)
			out.Hists = append(out.Hists, h)
			continue
		}
		if h.Count == p.Count {
			continue // no new samples in this timer
		}
		dh := WireHist{Timer: h.Timer, Count: h.Count - p.Count, Sum: h.Sum - p.Sum}
		pb := make(map[int64]int64, len(p.Buckets))
		for _, b := range p.Buckets {
			pb[b[0]] = b[1]
		}
		for _, b := range h.Buckets {
			if n := b[1] - pb[b[0]]; n > 0 {
				dh.Buckets = append(dh.Buckets, [2]int64{b[0], n})
			}
		}
		out.Hists = append(out.Hists, dh)
	}
	return out
}

// ---- POR publication log ---------------------------------------------------

// WirePorBug is one distinct bug of a published subtree delta.
type WirePorBug struct {
	Type    int         `json:"type"`
	Message string      `json:"message"`
	Exec    int         `json:"exec"`
	Count   int         `json:"count"`
	Rel     string      `json:"rel"`
	Suffix  []WirePoint `json:"suffix,omitempty"`
}

// WirePorPerf / WirePorMulti carry a subtree's perf-issue and flagged-load
// deltas (count plus the owner's representative).
type WirePorPerf struct {
	Count int       `json:"count"`
	Issue PerfIssue `json:"issue"`
}

type WirePorMulti struct {
	Count int     `json:"count"`
	Multi MultiRF `json:"multi"`
}

// WirePorDelta is a published recovery-subtree record in wire form.
type WirePorDelta struct {
	Scenarios int            `json:"scenarios"`
	Execs     int            `json:"execs"`
	Steps     int64          `json:"steps"`
	MaxRF     int            `json:"max_rf"`
	MaxRel    int            `json:"max_rel"`
	NewPoints [3]int         `json:"new_points"`
	Replayed  int64          `json:"replayed"`
	Fresh     int64          `json:"fresh"`
	Vec       []int64        `json:"vec,omitempty"`
	Bugs      []WirePorBug   `json:"bugs,omitempty"`
	Perf      []WirePorPerf  `json:"perf,omitempty"`
	Multi     []WirePorMulti `json:"multi,omitempty"`
}

// WirePorEntry is one entry of the POR seen-set publication log.
type WirePorEntry struct {
	FP    uint64       `json:"fp"`
	Delta WirePorDelta `json:"delta"`
}

func encodePorDelta(d *porDelta) WirePorDelta {
	wd := WirePorDelta{
		Scenarios: d.scenarios,
		Execs:     d.execs,
		Steps:     d.steps,
		MaxRF:     d.maxRF,
		MaxRel:    d.maxRel,
		NewPoints: d.newPoints,
		Replayed:  d.replayed,
		Fresh:     d.fresh,
		Vec:       vecOrNil(d.vec),
	}
	for _, b := range d.bugs {
		wd.Bugs = append(wd.Bugs, WirePorBug{
			Type:    int(b.typ),
			Message: b.msg,
			Exec:    b.exec,
			Count:   b.count,
			Rel:     b.rel,
			Suffix:  encodePoints(b.suffix),
		})
	}
	for _, p := range d.perf {
		wd.Perf = append(wd.Perf, WirePorPerf{Count: p.count, Issue: p.issue})
	}
	for _, m := range d.multi {
		cm := m.multi
		cm.Values = append([]string(nil), m.multi.Values...)
		wd.Multi = append(wd.Multi, WirePorMulti{Count: m.count, Multi: cm})
	}
	return wd
}

func compilePorDelta(wd *WirePorDelta) (*porDelta, error) {
	d := &porDelta{
		scenarios: wd.Scenarios,
		execs:     wd.Execs,
		steps:     wd.Steps,
		maxRF:     wd.MaxRF,
		maxRel:    wd.MaxRel,
		newPoints: wd.NewPoints,
		replayed:  wd.Replayed,
		fresh:     wd.Fresh,
	}
	if wd.Vec != nil {
		vec, ok := vecFromSlice(wd.Vec)
		if !ok {
			return nil, fmt.Errorf("por delta vec has %d counters", len(wd.Vec))
		}
		d.vec = vec
	}
	for i := range wd.Bugs {
		wb := &wd.Bugs[i]
		suffix, err := compilePoints(wb.Suffix)
		if err != nil {
			return nil, fmt.Errorf("por bug %d suffix: %v", i, err)
		}
		d.bugs = append(d.bugs, porBug{
			typ:    BugType(wb.Type),
			msg:    wb.Message,
			exec:   wb.Exec,
			count:  wb.Count,
			rel:    wb.Rel,
			suffix: suffix,
		})
	}
	for i := range wd.Perf {
		wp := wd.Perf[i]
		d.perf = append(d.perf, porPerfDelta{
			key:   perfKey(wp.Issue.Kind, wp.Issue.Loc),
			count: wp.Count,
			issue: wp.Issue,
		})
	}
	for i := range wd.Multi {
		wm := wd.Multi[i]
		cm := wm.Multi
		cm.Values = append([]string(nil), wm.Multi.Values...)
		d.multi = append(d.multi, porMultiDelta{key: cm.Loc, count: wm.Count, multi: cm})
	}
	return d, nil
}

// ---- Worker side: LeaseRunner ----------------------------------------------

// LeaseSink is the worker's view of the coordinator, implemented by
// internal/dist over HTTP (and by test harnesses directly). Hungry and
// Stopped may reflect stale coordinator state — they are cooperative hints,
// and the exactness of the protocol rests entirely on Commit's atomicity at
// the coordinator.
type LeaseSink interface {
	// Hungry reports whether the coordinator wants donated splits.
	Hungry() bool
	// Stopped reports whether a global cap or stop request ended the run:
	// the lease's remainder is dead work and is discarded.
	Stopped() bool
	// Draining reports a local graceful-stop request (SIGTERM): the lease
	// is released — progress so far is committed and the unexplored
	// residual handed back for another claimant — so, unlike Stopped,
	// nothing is discarded.
	Draining() bool
	// Commit atomically publishes the lease's progress: donated splits, the
	// residual claims covering all work not yet committed (the current
	// claim's snapshot plus any untouched claims of the batch), and the
	// stats delta since the previous commit (DiffWireStats). final retires
	// the lease; a final commit with no residuals marks the batch fully
	// explored (or dead under Stopped), while a final commit with residuals
	// *releases* the lease, asking the coordinator to requeue the
	// remainder. A non-nil error abandons the lease (its uncommitted tail
	// is requeued by the coordinator's expiry sweep). Implementations may
	// pipeline non-final commits — RunLease never depends on a non-final
	// ack before exploring further — but a final Commit must not return
	// until the coordinator acknowledged it.
	Commit(splits []WireClaim, residuals []WireClaim, delta *WireStats, final bool) error
}

// LeaseRunner executes leases against a guest program with the claim loop
// in-process workers use (exploreClaim). Each lease runs on a fresh private
// Checker; the POR seen-set mirror persists across leases and syncs with the
// coordinator's publication log through DrainPor/AbsorbPor.
type LeaseRunner struct {
	prog Program
	opts Options
	seen *porSeen
	// commitEvery bounds scenarios between non-final commits (default 16;
	// lower it for tighter lease-expiry windows, at more RPC traffic).
	commitEvery int
}

// NewLeaseRunner prepares a runner for prog. Worker-irrelevant options are
// normalized away exactly as newWorker does for in-process workers.
func NewLeaseRunner(prog Program, opts Options) *LeaseRunner {
	o := opts.withDefaults()
	o.Workers = 1
	o.EventTrace = nil
	lr := &LeaseRunner{prog: prog, opts: o, commitEvery: 16}
	if o.POR > 0 {
		lr.seen = newPorSeen()
	}
	return lr
}

// SetCommitEvery overrides the scenarios-per-commit cadence (min 1).
func (lr *LeaseRunner) SetCommitEvery(n int) {
	if n >= 1 {
		lr.commitEvery = n
	}
}

// PorVersion returns the local publication-log length — the cursor DrainPor
// advances past.
func (lr *LeaseRunner) PorVersion() int {
	if lr.seen == nil {
		return 0
	}
	return lr.seen.logLen()
}

// DrainPor returns locally published POR entries at log positions >= from.
func (lr *LeaseRunner) DrainPor(from int) []WirePorEntry {
	if lr.seen == nil {
		return nil
	}
	fps, deltas := lr.seen.entriesSince(from)
	out := make([]WirePorEntry, 0, len(fps))
	for i, fp := range fps {
		out = append(out, WirePorEntry{FP: fp, Delta: encodePorDelta(deltas[i])})
	}
	return out
}

// AbsorbPor installs coordinator-published POR entries into the local mirror
// (first publisher wins, so re-deliveries are no-ops).
func (lr *LeaseRunner) AbsorbPor(entries []WirePorEntry) error {
	if lr.seen == nil {
		return nil
	}
	for i := range entries {
		d, err := compilePorDelta(&entries[i].Delta)
		if err != nil {
			return err
		}
		lr.seen.publish(entries[i].FP, d)
	}
	return nil
}

// RunLease explores a batch of claimed subtrees to completion on one
// private Checker, each through exploreClaim, committing progress through the
// sink as seq-ordered deltas.
func (lr *LeaseRunner) RunLease(claims []WireClaim, sink LeaseSink) error {
	brs, err := compileBranches(claims)
	if err != nil {
		return err
	}
	c := New(lr.prog, lr.opts)
	if lr.seen != nil {
		c.porSeenSet = lr.seen
	}
	l := &leaseRun{sink: sink, c: c, every: lr.commitEvery}
	for i, br := range brs {
		l.pending = claims[i+1:]
		if err := c.exploreClaim(br, l); err != nil {
			return err
		}
		switch {
		case l.final:
			return nil
		case l.stopped:
			// A cap ended the job: the lease's remainder is dead work.
			return l.commit(nil, nil, true)
		case l.draining:
			// Graceful drain: release the lease instead of discarding its
			// remainder. The residual snapshot plus the untouched claims
			// cover exactly the unexplored work, so committing them final
			// hands the batch back to the coordinator immediately — no TTL
			// expiry needed (and none may ever come when leases never expire).
			return l.commit(nil, append([]WireClaim{l.residual()}, l.pending...), true)
		}
		// The claim is exhausted, or an engine panic dropped its remainder
		// (requeueing it would crash-loop every claimant): on to the rest.
	}
	// Reached when the last claim hit an engine panic (or the batch was
	// empty): retire the lease so the coordinator's result reports the
	// truncation.
	return l.commit(nil, nil, true)
}

// leaseRun is the claim loop's sink inside RunLease: LeaseSink's hints, plus
// the commit cadence, the residuals and the stats deltas.
type leaseRun struct {
	sink    LeaseSink
	c       *Checker
	every   int         // scenarios between non-final commits
	since   int         // scenarios since the last commit
	pending []WireClaim // untouched claims of the batch, owed back in residuals
	splits  []WireClaim // the current scenario's donation
	prev    *WireStats  // the last committed cumulative stats (nil: none yet)

	// Why the loop ended: a refused admission, or the batch's final commit.
	stopped, draining, final bool
}

func (l *leaseRun) admit() bool {
	l.stopped = l.sink.Stopped()
	l.draining = !l.stopped && l.sink.Draining()
	return !l.stopped && !l.draining
}

func (l *leaseRun) ran([]*BugReport) bool { return true }

// Hungry allows one donation per scenario: LeaseSink.Hungry is a stale hint,
// refreshed by the commit the donation triggers.
func (l *leaseRun) Hungry() bool { return len(l.splits) == 0 && l.sink.Hungry() }

func (l *leaseRun) donate(br branch) {
	l.splits = append(l.splits, encodeClaim(br))
}

// advanced commits when a donation must travel, every l.every scenarios, and
// finally when the batch is exhausted.
func (l *leaseRun) advanced(more bool) error {
	splits := l.splits
	l.splits = nil
	if !more && len(l.pending) == 0 {
		l.final = true
		return l.commit(splits, nil, true)
	}
	if l.since++; len(splits) == 0 && l.since < l.every {
		return nil
	}
	l.since = 0
	var residuals []WireClaim
	if more {
		residuals = []WireClaim{l.residual()}
	}
	return l.commit(splits, append(residuals, l.pending...), false)
}

// residual is the current claim's unexplored remainder.
func (l *leaseRun) residual() WireClaim { return encodeClaim(l.c.chooser.claimSnapshot()) }

// commit ships the stats delta against the previously committed cumulative
// snapshot.
func (l *leaseRun) commit(splits, residuals []WireClaim, final bool) error {
	cur := l.c.exportWireStats()
	if err := l.sink.Commit(splits, residuals, DiffWireStats(cur, l.prev), final); err != nil {
		return err
	}
	l.prev = cur
	return nil
}

// ---- Coordinator side: MergeAcc --------------------------------------------

// MergeAcc accumulates stats into one deterministic Result: committed
// WireStats deltas in a fleet, worker stats in process. Both go through
// stats.merge, so a complete exploration is bit-identical to the serial
// reference either way.
type MergeAcc struct {
	ck    *Checker
	start time.Time
	// col is the single persistent observability shard every absorbed
	// delta's counters fold into (lazily created; nil when not observing).
	// One shard instead of one per Absorb keeps delta commits from growing
	// the registry's shard list without bound.
	col *obs.Collector
}

// NewMergeAcc prepares an accumulator for prog. Set opts.Observe to collect
// merged Metrics from the workers' shipped shards.
func NewMergeAcc(prog Program, opts Options) *MergeAcc {
	o := opts.withDefaults()
	return &MergeAcc{ck: New(prog, o), start: time.Now()}
}

// Options returns the accumulator's normalized options (the job's canonical
// configuration, shipped to workers verbatim).
func (a *MergeAcc) Options() Options { return a.ck.opts }

// Observability exposes the accumulator's metrics registry (nil unless
// Observe was set) so the coordinator can record lease/RPC traffic into the
// same snapshot the merged Metrics come from.
func (a *MergeAcc) Observability() *obs.Registry { return a.ck.reg }

// Absorb folds one committed stats delta into the aggregate. Call exactly
// once per applied commit (the coordinator gates calls on the lease's
// advancing sequence number, so retried deliveries are not double-counted).
func (a *MergeAcc) Absorb(ws *WireStats) error {
	s, err := compileStats(ws)
	if err != nil {
		return err
	}
	a.ck.stats.merge(s)
	if ws.Obs != nil && a.ck.reg != nil {
		if a.col == nil {
			a.col = a.ck.reg.NewShard()
		}
		vec, _ := vecFromSlice(ws.Obs.Counters)
		a.col.AddCounters(vec)
		a.col.RaisePeaks(ws.Obs.Peaks)
		for i := range ws.Obs.Hists {
			a.col.AddHist(obs.Timer(ws.Obs.Hists[i].Timer), ws.Obs.Hists[i].snapshot())
		}
	}
	return nil
}

// AbsorbPorEntry validates one publication-log entry (the coordinator stores
// entries in wire form; validation at ingest keeps the log well-formed).
func AbsorbPorEntry(e *WirePorEntry) error {
	_, err := compilePorDelta(&e.Delta)
	return err
}

// SetWorkers records the fleet size in the merged metrics (non-canonical,
// like the in-process driver's).
func (a *MergeAcc) SetWorkers(n int) { a.ck.reg.SetWorkers(n) }

// BuildResult assembles the merged Result. complete reports whether the
// exploration drained with no cap hit; worker-side truncation (engine
// errors) is already folded into the merged stats.
func (a *MergeAcc) BuildResult(complete bool) *Result {
	res := a.ck.buildResult(a.start, complete)
	// MaxBugs caps recorded bugs, and concurrent discoveries can overshoot it
	// before the cooperative stop lands: trim after the canonical sort.
	if !a.ck.opts.StopAtFirstBug && len(res.Bugs) > a.ck.opts.MaxBugs {
		res.Bugs = res.Bugs[:a.ck.opts.MaxBugs]
	}
	return res
}
