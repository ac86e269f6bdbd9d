package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"jaaru/internal/obs"
	"jaaru/internal/pmem"
)

// Wire codec v2: a length-prefixed binary encoding of the core wire types,
// the one encoding internal/dist's lease path speaks.
//
// Layout rules:
//
//   - Unsigned lengths/counts are LEB128 uvarints; signed values are
//     zigzag varints (so small magnitudes of either sign stay 1-2 bytes).
//   - Strings and byte blobs are uvarint length + raw bytes.
//   - Fingerprints (hash-distributed 64-bit values) are fixed 8-byte
//     little-endian: a uvarint of a uniformly random uint64 averages over
//     9 bytes, so varinting them is a pessimization.
//   - Choice-point streams are prefix-interned per message: each stream
//     encodes the length of its common prefix with the previous stream the
//     same encoder emitted, then only the new points. Claims in a batch,
//     residual snapshots, and bug replay vectors share long prefixes by
//     construction, so this is where most of the wire bytes go away.
//   - Counter/peak vectors and histograms ship sparse: (index, value)
//     pairs for the populated entries against the fixed layouts of
//     obs.CounterVec / obs.Histogram. The original vector length travels
//     too, so decode rebuilds the exact slice (the test fixtures are not
//     all full-width and round-trips must be bit-exact).
//
// Encoder and decoder must walk the same field sequence; there is no
// self-describing framing below the message level. internal/dist frames
// whole protocol messages with a 2-byte magic and a message-kind byte.

// wireKindCode maps the three choice kinds to stable one-byte codes; any
// other string (malformed or future) travels escaped, so the codec never
// corrupts values it does not understand.
const wireKindEscape = 0xff

func wireKindCode(kind string) (byte, bool) {
	switch kind {
	case "fail":
		return 0, true
	case "rf":
		return 1, true
	case "evict":
		return 2, true
	}
	return 0, false
}

func wireKindName(code byte) (string, bool) {
	switch code {
	case 0:
		return "fail", true
	case 1:
		return "rf", true
	case 2:
		return "evict", true
	}
	return "", false
}

// WireEncoder serializes core wire types into one codec-v2 message. The
// zero value is not usable; construct with NewWireEncoder. Buffers may be
// reused across messages via Reset (pooling them is the caller's business).
type WireEncoder struct {
	buf  []byte
	prev []WirePoint // interning context: the previous point stream
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
func (e *WireEncoder) Uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// Varint appends a zigzag-encoded signed varint.
func (e *WireEncoder) Varint(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}

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
func (e *WireEncoder) Fixed64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// String appends a length-prefixed string.
func (e *WireEncoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob appends a length-prefixed byte slice (embedded JSON sub-documents:
// job options travel as JSON inside a v2 frame, because they evolve and
// are nowhere near the hot path).
func (e *WireEncoder) Blob(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Points appends a choice-point stream, interned against the previous
// stream this encoder emitted: shared-prefix length, then the new points.
func (e *WireEncoder) Points(pts []WirePoint) {
	shared := 0
	for shared < len(pts) && shared < len(e.prev) && pts[shared] == e.prev[shared] {
		shared++
	}
	e.Uvarint(uint64(len(pts)))
	e.Uvarint(uint64(shared))
	for _, p := range pts[shared:] {
		if code, ok := wireKindCode(p.Kind); ok {
			e.Byte(code)
		} else {
			e.Byte(wireKindEscape)
			e.String(p.Kind)
		}
		e.Int(p.N)
		e.Int(p.Idx)
	}
	e.prev = pts
}

// sparseVec appends an int64 vector as explicit length plus sparse
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

// Claim appends one WireClaim.
func (e *WireEncoder) Claim(w WireClaim) {
	e.Points(w.Points)
	if w.Limits == nil {
		e.Bool(false)
	} else {
		e.Bool(true)
		e.Uvarint(uint64(len(w.Limits)))
		for _, lim := range w.Limits {
			e.Int(lim)
		}
	}
	if w.Memos == nil {
		e.Bool(false)
	} else {
		e.Bool(true)
		e.Uvarint(uint64(len(w.Memos)))
		for _, m := range w.Memos {
			if m == nil {
				e.Bool(false)
				continue
			}
			e.Bool(true)
			e.Fixed64(m.FP)
			e.Varint(m.Steps)
			if m.Vec == nil {
				e.Bool(false)
			} else {
				e.Bool(true)
				e.sparseVec(m.Vec)
			}
		}
	}
}

// Claims appends a claim batch.
func (e *WireEncoder) Claims(ws []WireClaim) {
	e.Uvarint(uint64(len(ws)))
	for _, w := range ws {
		e.Claim(w)
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

func (e *WireEncoder) hist(h *WireHist) {
	e.Int(h.Timer)
	e.Varint(h.Count)
	e.Varint(h.Sum)
	e.Uvarint(uint64(len(h.Buckets)))
	prev := int64(0)
	for i, b := range h.Buckets {
		if i == 0 {
			e.Varint(b[0])
		} else {
			e.Varint(b[0] - prev) // gap-encoded ascending indexes
		}
		prev = b[0]
		e.Varint(b[1])
	}
}

func (e *WireEncoder) obsShard(wo *WireObs) {
	if wo == nil {
		e.Bool(false)
		return
	}
	e.Bool(true)
	e.sparseVec(wo.Counters)
	e.sparseVec(wo.Peaks)
	e.Uvarint(uint64(len(wo.Hists)))
	for i := range wo.Hists {
		e.hist(&wo.Hists[i])
	}
}

// Stats appends a WireStats (nil encodes as an absence marker).
func (e *WireEncoder) Stats(ws *WireStats) {
	if ws == nil {
		e.Bool(false)
		return
	}
	e.Bool(true)
	e.Int(ws.Scenarios)
	e.Int(ws.ExecsPost)
	e.Int(ws.FpointsPre)
	e.Varint(ws.Steps)
	e.Int(ws.MaxRF)
	for _, n := range ws.NewPoints {
		e.Int(n)
	}
	e.Bool(ws.Truncated)
	e.Uvarint(uint64(len(ws.Bugs)))
	for i := range ws.Bugs {
		b := &ws.Bugs[i]
		e.Int(b.Type)
		e.String(b.Message)
		e.Int(b.Execution)
		e.Int(b.Scenario)
		e.Int(b.Count)
		e.String(b.Choices)
		e.Points(b.Replay)
	}
	e.Uvarint(uint64(len(ws.MultiRF)))
	for i := range ws.MultiRF {
		e.multiRF(&ws.MultiRF[i])
	}
	e.Uvarint(uint64(len(ws.PerfIssues)))
	for i := range ws.PerfIssues {
		e.perfIssue(&ws.PerfIssues[i])
	}
	e.obsShard(ws.Obs)
}

// PorEntries appends a POR publication-log batch.
func (e *WireEncoder) PorEntries(es []WirePorEntry) {
	e.Uvarint(uint64(len(es)))
	for i := range es {
		en := &es[i]
		e.Fixed64(en.FP)
		d := &en.Delta
		e.Int(d.Scenarios)
		e.Int(d.Execs)
		e.Varint(d.Steps)
		e.Int(d.MaxRF)
		e.Int(d.MaxRel)
		for _, n := range d.NewPoints {
			e.Int(n)
		}
		e.Varint(d.Replayed)
		e.Varint(d.Fresh)
		if d.Vec == nil {
			e.Bool(false)
		} else {
			e.Bool(true)
			e.sparseVec(d.Vec)
		}
		e.Uvarint(uint64(len(d.Bugs)))
		for j := range d.Bugs {
			b := &d.Bugs[j]
			e.Int(b.Type)
			e.String(b.Message)
			e.Int(b.Exec)
			e.Int(b.Count)
			e.String(b.Rel)
			e.Points(b.Suffix)
		}
		e.Uvarint(uint64(len(d.Perf)))
		for j := range d.Perf {
			e.Int(d.Perf[j].Count)
			e.perfIssue(&d.Perf[j].Issue)
		}
		e.Uvarint(uint64(len(d.Multi)))
		for j := range d.Multi {
			e.Int(d.Multi[j].Count)
			e.multiRF(&d.Multi[j].Multi)
		}
	}
}

// WireDecoder is the mirror of WireEncoder: it walks the same field
// sequence over an encoded message. Errors are sticky — after the first
// malformed field every getter returns zero values and Err reports the
// failure — so call sites read fields linearly and check once at the end.
type WireDecoder struct {
	data []byte
	off  int
	err  error
	prev []WirePoint
	// points counts the points decoded so far, shared prefixes included:
	// interning makes a stream's size independent of its wire bytes, so the
	// total is bounded separately (maxPointsPerByte) to keep allocation in
	// proportion to the message.
	points int
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
// (every element costs at least min bytes), so malformed input cannot force
// huge allocations.
func (d *WireDecoder) length(min int) int {
	v := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
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
	n := d.length(1)
	if d.err != nil || n == 0 {
		return nil
	}
	if d.off+n > len(d.data) {
		d.fail("truncated blob at offset %d", d.off)
		return nil
	}
	b := append([]byte(nil), d.data[d.off:d.off+n]...)
	d.off += n
	return b
}

// Points reads a prefix-interned choice-point stream.
func (d *WireDecoder) Points() []WirePoint {
	// Not d.length: shared points cost zero wire bytes, so the generic
	// at-least-one-byte-per-element plausibility bound would reject valid
	// streams whose prefix is mostly interned (deep split claims at the tail
	// of a lease grant). Bound the fresh tail instead — each non-shared
	// point costs at least 3 bytes (kind byte plus two varints) — and the
	// shared head by the already-validated previous stream.
	n := int(d.Uvarint())
	shared := int(d.Uvarint())
	if d.err != nil {
		return nil
	}
	if shared > n || shared > len(d.prev) {
		d.fail("shared prefix %d exceeds stream (%d) or context (%d)", shared, n, len(d.prev))
		return nil
	}
	if d.points += n; n-shared > (len(d.data)-d.off)/3+1 || d.points > maxPointsPerByte*(len(d.data)+1) {
		d.fail("implausible point stream %d (shared %d) at offset %d", n, shared, d.off)
		return nil
	}
	if n == 0 {
		d.prev = nil
		return nil
	}
	pts := make([]WirePoint, n)
	copy(pts, d.prev[:shared])
	for i := shared; i < n; i++ {
		code := d.Byte()
		var kind string
		if code == wireKindEscape {
			kind = d.String()
		} else {
			var ok bool
			if kind, ok = wireKindName(code); !ok {
				d.fail("unknown point kind code %d", code)
				return nil
			}
		}
		pts[i] = WirePoint{Kind: kind, N: d.Int(), Idx: d.Int()}
	}
	if d.err != nil {
		return nil
	}
	d.prev = pts
	return pts
}

// sparseVec reads an explicit-length sparse int64 vector.
func (d *WireDecoder) sparseVec() []int64 {
	width := d.Uvarint()
	if d.err != nil {
		return nil
	}
	// The width is a logical vector size, not a byte count: cap it at the
	// widest real vector (counters; peaks are narrower) to bound allocation.
	if width > uint64(obs.NumCounters) {
		d.fail("implausible vector width %d", width)
		return nil
	}
	nz := d.length(2)
	if d.err != nil {
		return nil
	}
	v := make([]int64, width)
	for i := 0; i < nz; i++ {
		idx := d.Uvarint()
		val := d.Varint()
		if d.err != nil {
			return nil
		}
		if idx >= width {
			d.fail("sparse index %d out of width %d", idx, width)
			return nil
		}
		v[idx] = val
	}
	return v
}

// Claim reads one WireClaim.
func (d *WireDecoder) Claim() WireClaim {
	var w WireClaim
	w.Points = d.Points()
	if d.Bool() {
		n := d.length(1)
		w.Limits = make([]int, n)
		for i := range w.Limits {
			w.Limits[i] = d.Int()
		}
	}
	if d.Bool() {
		n := d.length(1)
		w.Memos = make([]*WireMemo, n)
		for i := range w.Memos {
			if !d.Bool() {
				continue
			}
			m := &WireMemo{FP: d.Fixed64(), Steps: d.Varint()}
			if d.Bool() {
				m.Vec = d.sparseVec()
			}
			w.Memos[i] = m
		}
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
		ws[i] = d.Claim()
	}
	return ws
}

func (d *WireDecoder) multiRF() MultiRF {
	m := MultiRF{
		Loc:        d.String(),
		Addr:       pmem.Addr(d.Uvarint()),
		Candidates: d.Int(),
	}
	if n := d.length(1); n > 0 && d.err == nil {
		m.Values = make([]string, n)
		for i := range m.Values {
			m.Values[i] = d.String()
		}
	}
	m.Count = d.Int()
	return m
}

func (d *WireDecoder) perfIssue() PerfIssue {
	return PerfIssue{
		Kind:  PerfIssueKind(d.Int()),
		Loc:   d.String(),
		Line:  pmem.Addr(d.Uvarint()),
		Count: d.Int(),
	}
}

func (d *WireDecoder) hist() WireHist {
	h := WireHist{Timer: d.Int(), Count: d.Varint(), Sum: d.Varint()}
	n := d.length(2)
	if d.err != nil || n == 0 {
		return h
	}
	h.Buckets = make([][2]int64, n)
	prev := int64(0)
	for i := range h.Buckets {
		gap := d.Varint()
		idx := prev + gap
		if i == 0 {
			idx = gap
		}
		prev = idx
		h.Buckets[i] = [2]int64{idx, d.Varint()}
	}
	return h
}

func (d *WireDecoder) obsShard() *WireObs {
	if !d.Bool() {
		return nil
	}
	wo := &WireObs{Counters: d.sparseVec(), Peaks: d.sparseVec()}
	n := d.length(1)
	if d.err != nil {
		return wo
	}
	for i := 0; i < n; i++ {
		wo.Hists = append(wo.Hists, d.hist())
	}
	return wo
}

// Stats reads a WireStats (nil when the absence marker was encoded).
func (d *WireDecoder) Stats() *WireStats {
	if !d.Bool() {
		return nil
	}
	ws := &WireStats{
		Scenarios:  d.Int(),
		ExecsPost:  d.Int(),
		FpointsPre: d.Int(),
		Steps:      d.Varint(),
		MaxRF:      d.Int(),
	}
	for i := range ws.NewPoints {
		ws.NewPoints[i] = d.Int()
	}
	ws.Truncated = d.Bool()
	nb := d.length(1)
	for i := 0; i < nb && d.err == nil; i++ {
		b := WireBug{
			Type:      d.Int(),
			Message:   d.String(),
			Execution: d.Int(),
			Scenario:  d.Int(),
			Count:     d.Int(),
			Choices:   d.String(),
			Replay:    d.Points(),
		}
		ws.Bugs = append(ws.Bugs, b)
	}
	nm := d.length(1)
	for i := 0; i < nm && d.err == nil; i++ {
		ws.MultiRF = append(ws.MultiRF, d.multiRF())
	}
	np := d.length(1)
	for i := 0; i < np && d.err == nil; i++ {
		ws.PerfIssues = append(ws.PerfIssues, d.perfIssue())
	}
	ws.Obs = d.obsShard()
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
		var en WirePorEntry
		en.FP = d.Fixed64()
		dl := &en.Delta
		dl.Scenarios = d.Int()
		dl.Execs = d.Int()
		dl.Steps = d.Varint()
		dl.MaxRF = d.Int()
		dl.MaxRel = d.Int()
		for j := range dl.NewPoints {
			dl.NewPoints[j] = d.Int()
		}
		dl.Replayed = d.Varint()
		dl.Fresh = d.Varint()
		if d.Bool() {
			dl.Vec = d.sparseVec()
		}
		nb := d.length(1)
		for j := 0; j < nb && d.err == nil; j++ {
			b := WirePorBug{
				Type:    d.Int(),
				Message: d.String(),
				Exec:    d.Int(),
				Count:   d.Int(),
				Rel:     d.String(),
				Suffix:  d.Points(),
			}
			dl.Bugs = append(dl.Bugs, b)
		}
		np := d.length(1)
		for j := 0; j < np && d.err == nil; j++ {
			p := WirePorPerf{Count: d.Int()}
			p.Issue = d.perfIssue()
			dl.Perf = append(dl.Perf, p)
		}
		nm := d.length(1)
		for j := 0; j < nm && d.err == nil; j++ {
			m := WirePorMulti{Count: d.Int()}
			m.Multi = d.multiRF()
			dl.Multi = append(dl.Multi, m)
		}
		out = append(out, en)
	}
	if d.err != nil {
		return nil
	}
	return out
}
