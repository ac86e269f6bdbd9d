package dist

import (
	"encoding/json"
	"fmt"

	"jaaru/internal/core"
)

// Wire-v2 framing, the one encoding of the lease-protocol messages. A frame
// is a 2-byte magic ("J2"), a one-byte message kind, then the message fields
// in the fixed order below, encoded with core.WireEncoder. Only the hot-path
// messages (lease, commit, heartbeat) are framed; job submission, status
// polls, and every error body are JSON so operators can always read them.
//
// core.Options travels as a JSON blob inside the lease frame
// (core.WireEncoder.Blob says why).

const (
	wire2Magic0 = 'J'
	wire2Magic1 = '2'
)

// Frame kinds. The request/response pairing is implicit in the HTTP
// exchange; the kind byte exists so a frame decoded against the wrong
// endpoint fails loudly instead of misparsing.
const (
	frameLeaseRequest byte = iota + 1
	frameLeaseResponse
	frameCommitRequest
	frameCommitResponse
	frameHeartbeatRequest
	frameHeartbeatResponse
)

// frameKind is the kind byte of v's frame (0: v has none).
func frameKind(v any) byte {
	switch v.(type) {
	case *LeaseRequest:
		return frameLeaseRequest
	case *LeaseResponse:
		return frameLeaseResponse
	case *CommitRequest:
		return frameCommitRequest
	case *CommitResponse:
		return frameCommitResponse
	case *HeartbeatRequest:
		return frameHeartbeatRequest
	case *HeartbeatResponse:
		return frameHeartbeatResponse
	}
	return 0
}

// encodeWire2 serializes one protocol envelope into a v2 frame appended to
// buf (from a pool; nil is fine). Types without a frame are an error.
func encodeWire2(buf []byte, v any) ([]byte, error) {
	e := core.NewWireEncoder(buf)
	e.Byte(wire2Magic0)
	e.Byte(wire2Magic1)
	e.Byte(frameKind(v))
	switch m := v.(type) {
	case *LeaseRequest:
		e.String(m.Worker)
		e.String(m.JobID)
		e.Int(m.PorVersion)
	case *LeaseResponse:
		e.String(m.Status)
		e.Int(m.RetryMs)
		if m.Lease == nil {
			e.Bool(false)
		} else {
			e.Bool(true)
			l := m.Lease
			e.String(l.ID)
			e.String(l.Token)
			e.String(l.JobID)
			e.String(l.Spec.Bench)
			e.Int(l.Spec.N)
			e.Bool(l.Spec.Buggy)
			opts, err := json.Marshal(l.Opts)
			if err != nil {
				return nil, fmt.Errorf("encode lease opts: %v", err)
			}
			e.Blob(opts)
			e.Claims(l.Claims)
			e.Int(l.TTLMs)
		}
		e.Bool(m.Hungry)
		e.PorEntries(m.Por)
		e.Int(m.PorVersion)
	case *CommitRequest:
		e.String(m.Token)
		e.Varint(m.Seq)
		e.Claims(m.Splits)
		e.Claims(m.Residuals)
		e.Stats(m.Delta)
		e.Bool(m.Final)
		e.PorEntries(m.Por)
		e.Int(m.PorVersion)
	case *CommitResponse:
		e.Bool(m.Stale)
		e.Bool(m.Stopped)
		e.Bool(m.Hungry)
		e.PorEntries(m.Por)
		e.Int(m.PorVersion)
	case *HeartbeatRequest:
		e.String(m.Token)
	case *HeartbeatResponse:
		e.Bool(m.Stale)
		e.Bool(m.Stopped)
	default:
		return nil, fmt.Errorf("wire2: no frame for %T", v)
	}
	return e.Bytes(), nil
}

// decodeWire2 parses a v2 frame into the envelope v points at, verifying
// the magic, the kind byte, and full consumption.
func decodeWire2(data []byte, v any) error {
	d := core.NewWireDecoder(data)
	if d.Byte() != wire2Magic0 || d.Byte() != wire2Magic1 {
		return fmt.Errorf("wire2: bad magic")
	}
	if kind, want := d.Byte(), frameKind(v); kind != want {
		return fmt.Errorf("wire2: frame kind %d, want %d", kind, want)
	}
	switch m := v.(type) {
	case *LeaseRequest:
		m.Worker = d.String()
		m.JobID = d.String()
		m.PorVersion = d.Int()
	case *LeaseResponse:
		m.Status = d.String()
		m.RetryMs = d.Int()
		if d.Bool() {
			l := &Lease{
				ID:    d.String(),
				Token: d.String(),
				JobID: d.String(),
				Spec: ProgSpec{
					Bench: d.String(),
					N:     d.Int(),
					Buggy: d.Bool(),
				},
			}
			if opts := d.Blob(); d.Err() == nil && opts != nil {
				if err := json.Unmarshal(opts, &l.Opts); err != nil {
					return fmt.Errorf("wire2: lease opts: %v", err)
				}
			}
			l.Claims = d.Claims()
			l.TTLMs = d.Int()
			m.Lease = l
		}
		m.Hungry = d.Bool()
		m.Por = d.PorEntries()
		m.PorVersion = d.Int()
	case *CommitRequest:
		m.Token = d.String()
		m.Seq = d.Varint()
		m.Splits = d.Claims()
		m.Residuals = d.Claims()
		m.Delta = d.Stats()
		m.Final = d.Bool()
		m.Por = d.PorEntries()
		m.PorVersion = d.Int()
	case *CommitResponse:
		m.Stale = d.Bool()
		m.Stopped = d.Bool()
		m.Hungry = d.Bool()
		m.Por = d.PorEntries()
		m.PorVersion = d.Int()
	case *HeartbeatRequest:
		m.Token = d.String()
	case *HeartbeatResponse:
		m.Stale = d.Bool()
		m.Stopped = d.Bool()
	default:
		return fmt.Errorf("wire2: no frame for %T", v)
	}
	return d.Done()
}
