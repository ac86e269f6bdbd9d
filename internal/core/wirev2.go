package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"jaaru/internal/obs"
	"jaaru/internal/pmem"
)

// Wire codec v2: a length-prefixed binary encoding of the engine's claims,
// stats and POR deltas, the one encoding internal/dist's lease path speaks.
// There is no second in-memory form: WireEncoder writes the engine's types
// and WireDecoder builds them, checking every field as it reads it, so a
// value that decodes is valid — a claim can be granted, a stats batch
// absorbed, a POR entry published.
//
// Layout rules:
//
//   - Unsigned lengths/counts are LEB128 uvarints; signed values are
//     zigzag varints (so small magnitudes of either sign stay 1-2 bytes).
//   - Strings and byte blobs are uvarint length + raw bytes.
//   - Fingerprints (hash-distributed 64-bit values) are fixed 8-byte
//     little-endian: a uvarint of a uniformly random uint64 averages over
//     9 bytes, so varinting them is a pessimization.
//   - A choice point is its choiceKind as one byte (0 fail, 1 rf, 2
//     evict), then its option count and index. Point streams are
//     prefix-interned per message: each stream encodes the length of its
//     common prefix with the previous stream the same encoder emitted, then
//     only the new points. Claims in a batch, residual snapshots, and bug
//     replay vectors share long prefixes by construction, so this is where
//     most of the wire bytes go away.
//   - Counter/peak vectors and histograms ship sparse: (index, value)
//     pairs for the populated entries against the fixed layouts of
//     obs.CounterVec / obs.Histogram. A vector's width travels too: counter
//     vectors are always obs.NumCounters wide, and only peaks keep a
//     narrower one.
//
// Encoder and decoder must walk the same field sequence; there is no
// self-describing framing below the message level. internal/dist frames
// whole protocol messages with a 2-byte magic and a message-kind byte.

// maxWireOptions bounds a point's option count. A real point has at most as
// many options as there are pre-failure stores; the bound keeps
// chooser.split's sum of open options across a claim from overflowing.
const maxWireOptions = 1 << 30

// WireEncoder serializes the engine's wire types into one codec-v2 message.
// The zero value is not usable; construct with NewWireEncoder. Buffers may be
// reused across messages via Reset (pooling them is the caller's business).
type WireEncoder struct {
	buf  []byte
	prev []choicePoint // interning context: the previous point stream
}

// NewWireEncoder returns an encoder appending to buf (nil is fine).
func NewWireEncoder(buf []byte) *WireEncoder {
	return &WireEncoder{buf: buf[:0]}
}

// Bytes returns the encoded message so far (valid until the next Reset).
func (e *WireEncoder) Bytes() []byte { return e.buf }

// Reset clears the buffer and the interning context for a new message.
func (e *WireEncoder) Reset() {
	e.buf = e.buf[:0]
	e.prev = nil
}

// Uvarint appends an unsigned LEB128 varint.
func (e *WireEncoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Varint appends a zigzag-encoded signed varint.
func (e *WireEncoder) Varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Int appends an int as a zigzag varint.
func (e *WireEncoder) Int(v int) { e.Varint(int64(v)) }

// Bool appends one byte (0/1).
func (e *WireEncoder) Bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Byte appends one raw byte (message-kind tags and presence markers).
func (e *WireEncoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Fixed64 appends a fixed 8-byte little-endian value (fingerprints).
func (e *WireEncoder) Fixed64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// String appends a length-prefixed string.
func (e *WireEncoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob appends a length-prefixed byte slice (embedded JSON sub-documents:
// job options travel as JSON inside a v2 frame, because they evolve and
// are nowhere near the hot path).
func (e *WireEncoder) Blob(b []byte) { e.String(string(b)) }

// points appends a choice-point stream, interned against the previous
// stream this encoder emitted: shared-prefix length, then the new points.
func (e *WireEncoder) points(pts []choicePoint) {
	shared := 0
	for shared < len(pts) && shared < len(e.prev) && pts[shared] == e.prev[shared] {
		shared++
	}
	e.Uvarint(uint64(len(pts)))
	e.Uvarint(uint64(shared))
	for _, p := range pts[shared:] {
		e.Byte(byte(p.kind))
		e.Int(p.n)
		e.Int(p.idx)
	}
	e.prev = pts
}

// sparseVec appends an int64 vector as explicit width plus sparse
// (index, value) pairs.
func (e *WireEncoder) sparseVec(v []int64) {
	e.Uvarint(uint64(len(v)))
	nz := 0
	for _, x := range v {
		if x != 0 {
			nz++
		}
	}
	e.Uvarint(uint64(nz))
	for i, x := range v {
		if x != 0 {
			e.Uvarint(uint64(i))
			e.Varint(x)
		}
	}
}

// counterVec appends a counter vector behind a presence flag: a nil or
// all-zero vector is absent.
func (e *WireEncoder) counterVec(v *obs.CounterVec) {
	if v == nil || *v == (obs.CounterVec{}) {
		e.Bool(false)
		return
	}
	e.Bool(true)
	e.sparseVec(v[:])
}

// claim appends one claim: its points, then its limits and its memos, each
// behind a presence flag (a frozen claim has no limits, and memos travel
// only when one is set).
func (e *WireEncoder) claim(w *WireClaim) {
	e.points(w.points)
	e.Bool(len(w.limits) > 0)
	if len(w.limits) > 0 {
		e.Uvarint(uint64(len(w.limits)))
		for _, lim := range w.limits {
			e.Int(lim)
		}
	}
	memos := slices.ContainsFunc(w.memos, func(m *failMemo) bool { return m != nil })
	e.Bool(memos)
	if !memos {
		return
	}
	e.Uvarint(uint64(len(w.memos)))
	for _, m := range w.memos {
		e.Bool(m != nil)
		if m != nil {
			e.Fixed64(m.fp)
			e.Varint(m.steps)
			e.counterVec(m.vec)
		}
	}
}

// Claims appends a claim batch.
func (e *WireEncoder) Claims(ws []WireClaim) {
	e.Uvarint(uint64(len(ws)))
	for i := range ws {
		e.claim(&ws[i])
	}
}

func (e *WireEncoder) multiRF(m *MultiRF) {
	e.String(m.Loc)
	e.Uvarint(uint64(m.Addr))
	e.Int(m.Candidates)
	e.Uvarint(uint64(len(m.Values)))
	for _, v := range m.Values {
		e.String(v)
	}
	e.Int(m.Count)
}

func (e *WireEncoder) perfIssue(p *PerfIssue) {
	e.Int(int(p.Kind))
	e.String(p.Loc)
	e.Uvarint(uint64(p.Line))
	e.Int(p.Count)
}

// hist appends timer t's histogram: count, sum, then its populated buckets
// as ascending gap-encoded (index, count) pairs.
func (e *WireEncoder) hist(t int, h *obs.HistSnapshot) {
	e.Int(t)
	e.Varint(h.Count)
	e.Varint(h.Sum)
	nz := 0
	for _, n := range h.Counts {
		if n != 0 {
			nz++
		}
	}
	e.Uvarint(uint64(nz))
	prev := 0
	for i, n := range h.Counts {
		if n != 0 {
			e.Varint(int64(i - prev))
			e.Varint(n)
			prev = i
		}
	}
}

// Stats appends a WireStats (nil encodes as an absence marker). Keyed
// findings go in a canonical order — bugs as recorded, flagged loads and
// perf issues sorted — so equal stats encode to equal bytes.
func (e *WireEncoder) Stats(ws *WireStats) {
	e.Bool(ws != nil)
	if ws == nil {
		return
	}
	e.Int(ws.scenarios)
	e.Int(ws.execsPost)
	e.Int(ws.fpointsPre)
	e.Varint(ws.totalSteps)
	e.Int(ws.maxRF)
	for _, n := range ws.newPoints {
		e.Int(n)
	}
	e.Bool(ws.truncated)
	e.Uvarint(uint64(len(ws.bugs)))
	for _, b := range ws.bugs {
		e.Int(int(b.Type))
		e.String(b.Message)
		e.Int(b.Execution)
		e.Int(b.Scenario)
		e.Int(b.Count)
		e.String(b.Choices)
		e.points(b.replay)
	}
	e.Uvarint(uint64(len(ws.multiRF)))
	for _, m := range sortedMultiRF(ws.multiRF) {
		e.multiRF(m)
	}
	e.Uvarint(uint64(len(ws.perfIssues)))
	for _, p := range sortedPerfIssues(ws.perfIssues) {
		e.perfIssue(p)
	}
	e.Bool(ws.observed)
	if !ws.observed {
		return
	}
	e.sparseVec(ws.counters[:])
	e.sparseVec(ws.peaks)
	n := 0
	for t := range ws.hists {
		if ws.hists[t].Count != 0 {
			n++
		}
	}
	e.Uvarint(uint64(n))
	for t := range ws.hists {
		if ws.hists[t].Count != 0 {
			e.hist(t, &ws.hists[t])
		}
	}
}

// PorEntries appends a POR publication-log batch.
func (e *WireEncoder) PorEntries(es []WirePorEntry) {
	e.Uvarint(uint64(len(es)))
	for _, en := range es {
		e.Fixed64(en.fp)
		d := en.delta
		e.Int(d.scenarios)
		e.Int(d.execs)
		e.Varint(d.steps)
		e.Int(d.maxRF)
		e.Int(d.maxRel)
		for _, n := range d.newPoints {
			e.Int(n)
		}
		e.Varint(d.replayed)
		e.Varint(d.fresh)
		e.counterVec(&d.vec)
		e.Uvarint(uint64(len(d.bugs)))
		for j := range d.bugs {
			b := &d.bugs[j]
			e.Int(int(b.typ))
			e.String(b.msg)
			e.Int(b.exec)
			e.Int(b.count)
			e.String(b.rel)
			e.points(b.suffix)
		}
		e.Uvarint(uint64(len(d.perf)))
		for j := range d.perf {
			e.Int(d.perf[j].count)
			e.perfIssue(&d.perf[j].issue)
		}
		e.Uvarint(uint64(len(d.multi)))
		for j := range d.multi {
			e.Int(d.multi[j].count)
			e.multiRF(&d.multi[j].multi)
		}
	}
}

// WireDecoder is the mirror of WireEncoder: it walks the same field
// sequence over an encoded message, building the engine's types and
// checking each as it goes. Errors are sticky — after the first malformed
// field every getter returns zero values and Err reports the failure — so
// call sites read fields linearly and check once at the end; a message
// getter (Claims, Stats, PorEntries) returns nil once the error is set.
type WireDecoder struct {
	data []byte
	off  int
	err  error
	prev []choicePoint
	// npoints counts the points decoded so far, shared prefixes included:
	// interning makes a stream's size independent of its wire bytes, so the
	// total is bounded separately (maxPointsPerByte) to keep allocation in
	// proportion to the message.
	npoints int
}

// maxPointsPerByte bounds a message's decoded points per wire byte. Real
// messages stay under 20: the deepest are cumulative stats whose bugs carry
// replay vectors sharing one long prefix, and each bug costs several bytes of
// its own.
const maxPointsPerByte = 64

// NewWireDecoder returns a decoder over data.
func NewWireDecoder(data []byte) *WireDecoder {
	return &WireDecoder{data: data}
}

// Err reports the first decode error (nil if none so far).
func (d *WireDecoder) Err() error { return d.err }

// Done verifies the message was fully consumed with no errors.
func (d *WireDecoder) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.data) {
		return fmt.Errorf("wirev2: %d trailing bytes", len(d.data)-d.off)
	}
	return nil
}

func (d *WireDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wirev2: "+format, args...)
	}
}

// Uvarint reads an unsigned varint.
func (d *WireDecoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("truncated uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Varint reads a zigzag-encoded signed varint.
func (d *WireDecoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.fail("truncated varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Int reads a zigzag varint as an int, rejecting values outside int range.
func (d *WireDecoder) Int() int {
	v := d.Varint()
	if v > math.MaxInt || v < math.MinInt {
		d.fail("varint %d overflows int", v)
		return 0
	}
	return int(v)
}

// Bool reads one byte as a bool.
func (d *WireDecoder) Bool() bool {
	return d.Byte() != 0
}

// Byte reads one raw byte.
func (d *WireDecoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.data) {
		d.fail("truncated byte at offset %d", d.off)
		return 0
	}
	b := d.data[d.off]
	d.off++
	return b
}

// Fixed64 reads a fixed 8-byte little-endian value.
func (d *WireDecoder) Fixed64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.data) {
		d.fail("truncated fixed64 at offset %d", d.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
	return v
}

// length reads a collection length and bounds it by the bytes remaining
// (every element costs at least min >= 1 bytes), so malformed input cannot force
// huge allocations.
func (d *WireDecoder) length(min int) int {
	v := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64((len(d.data)-d.off)/min+1) {
		d.fail("implausible length %d at offset %d", v, d.off)
		return 0
	}
	return int(v)
}

// String reads a length-prefixed string.
func (d *WireDecoder) String() string {
	n := d.length(1)
	if d.err != nil || n == 0 {
		return ""
	}
	if d.off+n > len(d.data) {
		d.fail("truncated string at offset %d", d.off)
		return ""
	}
	s := string(d.data[d.off : d.off+n])
	d.off += n
	return s
}

// Blob reads a length-prefixed byte slice (nil when empty).
func (d *WireDecoder) Blob() []byte {
	if s := d.String(); s != "" {
		return []byte(s)
	}
	return nil
}

// points reads a prefix-interned choice-point stream. Every fresh point
// must have a known kind and 0 <= idx < n <= maxWireOptions; shared points
// were checked in the stream they came from.
func (d *WireDecoder) points() []choicePoint {
	// Not d.length: shared points cost zero wire bytes, so the generic
	// at-least-one-byte-per-element plausibility bound would reject valid
	// streams whose prefix is mostly interned (deep split claims at the tail
	// of a lease grant). Bound the fresh tail instead — each non-shared
	// point costs at least 3 bytes (kind byte plus two varints) — and the
	// shared head by the already-checked previous stream.
	n, shared := d.Uvarint(), d.Uvarint()
	if d.err != nil {
		return nil
	}
	if shared > n || shared > uint64(len(d.prev)) {
		d.fail("shared prefix %d exceeds stream (%d) or context (%d)", shared, n, len(d.prev))
		return nil
	}
	if n-shared > uint64((len(d.data)-d.off)/3+1) || n > uint64(maxPointsPerByte*(len(d.data)+1)-d.npoints) {
		d.fail("implausible point stream %d (shared %d) at offset %d", n, shared, d.off)
		return nil
	}
	d.npoints += int(n)
	if n == 0 {
		d.prev = nil
		return nil
	}
	pts := make([]choicePoint, n)
	copy(pts, d.prev[:shared])
	for i := int(shared); i < len(pts) && d.err == nil; i++ {
		kind, opts, idx := d.Byte(), d.Int(), d.Int()
		switch {
		case kind > byte(chooseEvict):
			d.fail("point %d: unknown kind code %d", i, kind)
		case opts > maxWireOptions:
			d.fail("point %d: %d options, more than %d", i, opts, maxWireOptions)
		case opts <= 0 || idx < 0 || idx >= opts:
			d.fail("point %d: idx %d out of range [0,%d)", i, idx, opts)
		}
		pts[i] = choicePoint{kind: choiceKind(kind), n: opts, idx: idx}
	}
	if d.err != nil {
		return nil
	}
	d.prev = pts
	return pts
}

// sparseVec reads an explicit-width sparse int64 vector into v, which it
// must fit, and returns the width.
func (d *WireDecoder) sparseVec(v []int64) int {
	width := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if width > uint64(len(v)) {
		d.fail("implausible vector width %d", width)
		return 0
	}
	nz := d.length(2)
	for i := 0; i < nz && d.err == nil; i++ {
		switch idx, val := d.Uvarint(), d.Varint(); {
		case d.err != nil:
		case idx >= width:
			d.fail("sparse index %d out of width %d", idx, width)
		default:
			v[idx] = val
		}
	}
	return int(width)
}

// counterVec reads a sparse vector that must be exactly obs.NumCounters wide.
func (d *WireDecoder) counterVec(v *obs.CounterVec) {
	if w := d.sparseVec(v[:]); w != len(v) {
		d.fail("counter vector has %d counters, want %d", w, len(v))
	}
}

// optCounterVec reads a counter vector behind a presence flag: nil when
// absent or all zero, as the engine holds a memo's.
func (d *WireDecoder) optCounterVec() *obs.CounterVec {
	if !d.Bool() {
		return nil
	}
	v := new(obs.CounterVec)
	if d.counterVec(v); *v == (obs.CounterVec{}) {
		return nil
	}
	return v
}

// claim reads one claim: limits must match the points one for one with
// idx < limit <= n, and memos sit on failure decisions only.
func (d *WireDecoder) claim() WireClaim {
	var w WireClaim
	w.points = d.points()
	if d.Bool() {
		if n := d.length(1); n != len(w.points) {
			d.fail("claim has %d limits for %d points", n, len(w.points))
		} else if n > 0 {
			w.limits = make([]int, n)
			for i, p := range w.points {
				if w.limits[i] = d.Int(); w.limits[i] <= p.idx || w.limits[i] > p.n {
					d.fail("point %d: limit %d out of range (%d,%d]", i, w.limits[i], p.idx, p.n)
				}
			}
		}
	}
	if d.Bool() {
		if n := d.length(1); n != len(w.points) {
			d.fail("claim has %d memos for %d points", n, len(w.points))
		} else {
			memos := make([]*failMemo, n)
			for i, p := range w.points {
				if !d.Bool() {
					continue
				}
				if p.kind != chooseFail {
					d.fail("point %d: memo on non-fail point", i)
				}
				memos[i] = &failMemo{fp: d.Fixed64(), steps: d.Varint(), vec: d.optCounterVec()}
				w.memos = memos // set once some point has a memo
			}
		}
	}
	if d.err != nil {
		return WireClaim{}
	}
	return w
}

// Claims reads a claim batch (nil when empty).
func (d *WireDecoder) Claims() []WireClaim {
	n := d.length(1)
	if d.err != nil || n == 0 {
		return nil
	}
	ws := make([]WireClaim, n)
	for i := range ws {
		ws[i] = d.claim()
	}
	if d.err != nil {
		return nil
	}
	return ws
}

func (d *WireDecoder) multiRF() *MultiRF {
	m := &MultiRF{
		Loc:        d.String(),
		Addr:       pmem.Addr(d.Uvarint()),
		Candidates: d.Int(),
	}
	if n := d.length(1); n > 0 {
		m.Values = make([]string, n)
		for i := range m.Values {
			m.Values[i] = d.String()
		}
	}
	m.Count = d.Int()
	return m
}

func (d *WireDecoder) perfIssue() *PerfIssue {
	return &PerfIssue{
		Kind:  PerfIssueKind(d.Int()),
		Loc:   d.String(),
		Line:  pmem.Addr(d.Uvarint()),
		Count: d.Int(),
	}
}

// hist reads timer t's histogram: a positive count, a non-negative sum, and
// ascending in-range buckets of positive counts that sum to the count.
func (d *WireDecoder) hist(t obs.Timer) obs.HistSnapshot {
	h := obs.HistSnapshot{Count: d.Varint(), Sum: d.Varint()}
	if h.Count <= 0 || h.Sum < 0 {
		d.fail("hist %s: count/sum %d/%d", t, h.Count, h.Sum)
	}
	base, last, total := int64(0), int64(-1), int64(0)
	for i, n := 0, d.length(2); i < n && d.err == nil; i++ {
		idx, count := base+d.Varint(), d.Varint()
		switch {
		case idx <= last || idx >= int64(obs.NumHistBuckets):
			d.fail("hist %s: bucket index %d out of order or range", t, idx)
		case count <= 0:
			d.fail("hist %s: bucket %d has non-positive count %d", t, idx, count)
		default:
			h.Counts = append(h.Counts, make([]int64, idx-int64(len(h.Counts)))...)
			h.Counts = append(h.Counts, count)
			base, last, total = idx, idx, total+count
		}
	}
	if total != h.Count {
		d.fail("hist %s: bucket counts sum to %d, want count %d", t, total, h.Count)
	}
	return h
}

// Stats reads a WireStats (nil when the absence marker was encoded). Keyed
// findings that repeat a key merge as the coordinator's merge would.
func (d *WireDecoder) Stats() *WireStats {
	if !d.Bool() {
		return nil
	}
	ws := &WireStats{}
	ws.initStats()
	ws.scenarios, ws.execsPost, ws.fpointsPre = d.Int(), d.Int(), d.Int()
	ws.totalSteps, ws.maxRF = d.Varint(), d.Int()
	for i := range ws.newPoints {
		ws.newPoints[i] = d.Int()
	}
	ws.truncated = d.Bool()
	if ws.scenarios < 0 || ws.execsPost < 0 || ws.fpointsPre < 0 {
		d.fail("negative counts (scenarios %d, execs %d, fpoints %d)", ws.scenarios, ws.execsPost, ws.fpointsPre)
	}
	for i, n := 0, d.length(1); i < n && d.err == nil; i++ {
		ws.mergeBug(&BugReport{
			Type:      BugType(d.Int()),
			Message:   d.String(),
			Execution: d.Int(),
			Scenario:  d.Int(),
			Count:     d.Int(),
			Choices:   d.String(),
			replay:    d.points(),
		})
	}
	for i, n := 0, d.length(1); i < n && d.err == nil; i++ {
		m := d.multiRF()
		ws.mergeMultiRF(m.Loc, m)
	}
	for i, n := 0, d.length(1); i < n && d.err == nil; i++ {
		p := d.perfIssue()
		ws.mergePerfIssue(perfKey(p.Kind, p.Loc), p)
	}
	if ws.observed = d.Bool(); ws.observed {
		d.counterVec(&ws.counters)
		var peaks [obs.NumCounters]int64
		ws.peaks = append([]int64(nil), peaks[:d.sparseVec(peaks[:])]...)
		last := -1
		for i, n := 0, d.length(1); i < n && d.err == nil; i++ {
			t := d.Int()
			if t <= last || t >= obs.NumTimers {
				d.fail("hist timer %d out of order or range", t)
				break
			}
			ws.hists[t], last = d.hist(obs.Timer(t)), t
		}
	}
	if d.err != nil {
		return nil
	}
	return ws
}

// PorEntries reads a POR publication-log batch (nil when empty).
func (d *WireDecoder) PorEntries() []WirePorEntry {
	n := d.length(9) // fixed fp alone is 8 bytes
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]WirePorEntry, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		fp := d.Fixed64()
		dl := &porDelta{
			scenarios: d.Int(),
			execs:     d.Int(),
			steps:     d.Varint(),
			maxRF:     d.Int(),
			maxRel:    d.Int(),
		}
		for j := range dl.newPoints {
			dl.newPoints[j] = d.Int()
		}
		dl.replayed, dl.fresh = d.Varint(), d.Varint()
		if v := d.optCounterVec(); v != nil {
			dl.vec = *v
		}
		for j, nb := 0, d.length(1); j < nb && d.err == nil; j++ {
			dl.bugs = append(dl.bugs, porBug{
				typ:    BugType(d.Int()),
				msg:    d.String(),
				exec:   d.Int(),
				count:  d.Int(),
				rel:    d.String(),
				suffix: d.points(),
			})
		}
		for j, np := 0, d.length(1); j < np && d.err == nil; j++ {
			count := d.Int()
			p := d.perfIssue()
			dl.perf = append(dl.perf, porPerfDelta{key: perfKey(p.Kind, p.Loc), count: count, issue: *p})
		}
		for j, nm := 0, d.length(1); j < nm && d.err == nil; j++ {
			count := d.Int()
			m := d.multiRF()
			dl.multi = append(dl.multi, porMultiDelta{key: m.Loc, count: count, multi: *m})
		}
		out = append(out, WirePorEntry{fp, dl})
	}
	if d.err != nil {
		return nil
	}
	return out
}
