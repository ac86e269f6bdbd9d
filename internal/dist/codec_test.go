package dist

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"jaaru/internal/conform"
	"jaaru/internal/core"
	"jaaru/internal/obs"
)

// ---- frame round trips ------------------------------------------------------

// decoded returns what read decodes from the bytes write encodes with the
// codec's primitives: claims, stats and POR entries have no exported fields,
// so a test builds them the way a worker's frame would carry them.
func decoded[T any](t testing.TB, read func(*core.WireDecoder) T, write func(e *core.WireEncoder)) T {
	t.Helper()
	e := core.NewWireEncoder(nil)
	write(e)
	d := core.NewWireDecoder(e.Bytes())
	v := read(d)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	return v
}

// Choice-kind codes on the wire.
const (
	kindFail = iota
	kindRF
	kindEvict
)

// writePoints writes a point stream sharing shared points with the previous
// stream of the message, then the fresh points as (kind, n, idx) triples.
func writePoints(e *core.WireEncoder, shared int, fresh ...[3]int) {
	e.Uvarint(uint64(shared + len(fresh)))
	e.Uvarint(uint64(shared))
	for _, p := range fresh {
		e.Byte(byte(p[0]))
		e.Int(p[1])
		e.Int(p[2])
	}
}

// writeFrozen writes one frozen claim of fresh points: no limits, no memos.
func writeFrozen(e *core.WireEncoder, fresh ...[3]int) {
	writePoints(e, 0, fresh...)
	e.Bool(false)
	e.Bool(false)
}

// testClaims is a residual (a fail point with a POR memo, an rf point, a
// POR-clamped evict point) and a frozen donated split sharing its first
// point, which exercises the codec's prefix interning.
func testClaims(t testing.TB) []core.WireClaim {
	return decoded(t, (*core.WireDecoder).Claims, func(e *core.WireEncoder) {
		e.Uvarint(2)
		writePoints(e, 0, [3]int{kindFail, 4, 1}, [3]int{kindRF, 3, 2}, [3]int{kindEvict, 2, 0})
		e.Bool(true) // limits
		e.Uvarint(3)
		e.Int(3)
		e.Int(3)
		e.Int(1)
		e.Bool(true) // memos
		e.Uvarint(3)
		e.Bool(true)
		e.Fixed64(0xdeadbeef)
		e.Varint(42)
		e.Bool(true) // its counter vector: two counters set
		e.Uvarint(uint64(obs.NumCounters))
		e.Uvarint(2)
		e.Uvarint(0)
		e.Varint(1)
		e.Uvarint(2)
		e.Varint(7)
		e.Bool(false)
		e.Bool(false)
		writePoints(e, 1, [3]int{kindRF, 3, 0})
		e.Bool(false)
		e.Bool(false)
	})
}

// writeStatsHead writes the start of a stats batch: the given scalars
// (scenarios, executions, failure points, steps, max rf, new fail/rf/evict
// points; missing ones are 0), not truncated. Findings and the obs shard
// follow.
func writeStatsHead(e *core.WireEncoder, scalars ...int) {
	e.Bool(true)
	for i := range 8 {
		n := 0
		if i < len(scalars) {
			n = scalars[i]
		}
		e.Int(n)
	}
	e.Bool(false)
}

// writeStats writes a stats batch of the given scalars with no findings and
// no obs shard.
func writeStats(e *core.WireEncoder, scalars ...int) {
	writeStatsHead(e, scalars...)
	e.Uvarint(0)  // bugs
	e.Uvarint(0)  // flagged loads
	e.Uvarint(0)  // perf issues
	e.Bool(false) // obs shard
}

// writePorEntry writes one POR entry with no counter vector, perf issues or
// flagged loads: the fingerprint, then the delta's scalars (scenarios,
// executions, steps, max rf, max depth, new points ×3, replayed, fresh).
func writePorEntry(e *core.WireEncoder, fp uint64, bugs func(e *core.WireEncoder), scalars ...int) {
	e.Fixed64(fp)
	for _, n := range scalars {
		e.Int(n)
	}
	e.Bool(false) // vec
	if bugs == nil {
		e.Uvarint(0)
	} else {
		bugs(e)
	}
	e.Uvarint(0) // perf
	e.Uvarint(0) // multi
}

func testPorEntries(t testing.TB) []core.WirePorEntry {
	return decoded(t, (*core.WireDecoder).PorEntries, func(e *core.WireEncoder) {
		e.Uvarint(2)
		writePorEntry(e, 0x1234, func(e *core.WireEncoder) {
			e.Uvarint(1)
			e.Int(1) // type
			e.String("torn line")
			e.Int(4) // exec
			e.Int(2) // count
			e.String("0,1")
			writePoints(e, 0, [3]int{kindRF, 2, 1})
		}, 5, 7, 99, 2, 1, 1, 2, 0, 3, 2)
		writePorEntry(e, 0x5678, nil, 1, 1, 8, 0, 0, 0, 0, 0, 0, 1)
	})
}

// emptyStats is a stats batch that counts nothing.
func emptyStats(t testing.TB) *core.WireStats {
	return decoded(t, (*core.WireDecoder).Stats, func(e *core.WireEncoder) { writeStats(e) })
}

// testEnvelopes is every protocol envelope shape: the first of each kind is
// the richest, and the one FuzzDecodeWire2's committed corpus was made from.
func testEnvelopes(t testing.TB) []any {
	claims, por := testClaims(t), testPorEntries(t)
	return []any{
		&LeaseRequest{Worker: "w1", JobID: "j1", PorVersion: 5},
		&LeaseResponse{
			Status: StatusGranted,
			Lease: &Lease{
				ID: "l1", Token: "tok-1", JobID: "j1",
				Spec:   ProgSpec{Bench: "tree", N: 6, Buggy: true},
				Opts:   distOpts(),
				Claims: claims,
				TTLMs:  60000,
			},
			Hungry: true, Por: por, PorVersion: 2,
		},
		&LeaseResponse{Status: StatusIdle, RetryMs: 250},
		&LeaseResponse{Status: StatusShutdown},
		&CommitRequest{
			Token: "tok-1", Seq: 3,
			Splits:    claims[1:],
			Residuals: claims[:1],
			Delta: decoded(t, (*core.WireDecoder).Stats, func(e *core.WireEncoder) {
				writeStats(e, 9, 8, 7, 1234, 3, 2, 1, 0)
			}),
			Final: true,
			Por:   por, PorVersion: 4,
		},
		&CommitRequest{Token: "tok-2", Seq: 1, Delta: emptyStats(t)},
		&CommitResponse{Stale: true, Stopped: true, Hungry: true, Por: por[:1], PorVersion: 9},
		&CommitResponse{},
		&HeartbeatRequest{Token: "tok-1"},
		&HeartbeatResponse{Stale: true, Stopped: true},
	}
}

// corpusFrame reads one frame of FuzzDecodeWire2's committed corpus.
func corpusFrame(t *testing.T, name string) []byte {
	t.Helper()
	text, err := os.ReadFile(filepath.Join("testdata/fuzz/FuzzDecodeWire2", name))
	if err != nil {
		t.Fatal(err)
	}
	_, quoted, _ := strings.Cut(strings.TrimSpace(string(text)), "\n[]byte(")
	frame, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(frame)
}

// TestWire2FrameRoundTrip drives every protocol envelope through the v2
// framing and back: the decoded envelope re-encodes to the same bytes, and
// the first envelope of each kind encodes to its frame in the committed
// fuzz corpus, so the frames' bytes are pinned as well as their meaning.
func TestWire2FrameRoundTrip(t *testing.T) {
	corpus := map[byte]string{
		frameLeaseRequest: "lease_request", frameLeaseResponse: "lease_response",
		frameCommitRequest: "commit_request", frameCommitResponse: "commit_response",
		frameHeartbeatRequest: "heartbeat_request", frameHeartbeatResponse: "heartbeat_response",
	}
	for _, env := range testEnvelopes(t) {
		frame, err := encodeWire2(nil, env)
		if err != nil {
			t.Fatalf("%T: encode: %v", env, err)
		}
		if name, ok := corpus[frameKind(env)]; ok {
			delete(corpus, frameKind(env))
			if want := corpusFrame(t, name); !bytes.Equal(frame, want) {
				t.Errorf("%T: frame differs from corpus %s:\nwant %q\ngot  %q", env, name, want, frame)
			}
		}
		got := reflect.New(reflect.TypeOf(env).Elem()).Interface()
		if err := decodeWire2(frame, got); err != nil {
			t.Fatalf("%T: decode: %v", env, err)
		}
		again, err := encodeWire2(nil, got)
		if err != nil || !bytes.Equal(again, frame) {
			t.Errorf("%T: round trip re-encodes differently (%v):\nin:  %q\nout: %q", env, err, frame, again)
		}
	}
}

// TestWire2FrameErrors: corrupt frames fail loudly, never misparse.
func TestWire2FrameErrors(t *testing.T) {
	frame, err := encodeWire2(nil, &HeartbeatRequest{Token: "tok"})
	if err != nil {
		t.Fatal(err)
	}

	// Wrong envelope type for the frame's kind byte.
	if err := decodeWire2(frame, &CommitRequest{}); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Errorf("kind mismatch: err = %v, want frame-kind error", err)
	}
	// Bad magic.
	bad := append([]byte{}, frame...)
	bad[0] = 'X'
	if err := decodeWire2(bad, &HeartbeatRequest{}); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: err = %v, want magic error", err)
	}
	// Trailing garbage after a complete frame.
	if err := decodeWire2(append(append([]byte{}, frame...), 0x00), &HeartbeatRequest{}); err == nil {
		t.Error("trailing byte accepted")
	}
	// Truncations anywhere in the frame must error, not panic.
	for cut := 0; cut < len(frame); cut++ {
		if err := decodeWire2(frame[:cut], &HeartbeatRequest{}); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Types without a v2 frame are refused on both sides.
	if _, err := encodeWire2(nil, &JobRequest{}); err == nil {
		t.Error("encodeWire2 accepted an unframed type")
	}
	if err := decodeWire2(frame, &JobRequest{}); err == nil {
		t.Error("decodeWire2 accepted an unframed type")
	}
}

// FuzzDecodeWire2 is the lease-path parser under hostile input. Whatever the
// bytes, decoding them as any of the six messages must not panic, must
// allocate in proportion to the input, and a frame that decodes must
// re-encode to bytes that decode equal. The committed corpus
// (testdata/fuzz/FuzzDecodeWire2) holds one frame per message kind, the first
// of each kind in testEnvelopes; `go test -fuzz FuzzDecodeWire2
// ./internal/dist` explores from there.
func FuzzDecodeWire2(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		envelopes := []any{&LeaseRequest{}, &LeaseResponse{}, &CommitRequest{},
			&CommitResponse{}, &HeartbeatRequest{}, &HeartbeatResponse{}}
		for _, env := range envelopes {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := decodeWire2(data, env)
			runtime.ReadMemStats(&after)
			// A generous constant factor (decoded points and full-width
			// counter vectors outweigh their wire bytes) plus slack for
			// whatever else the runtime allocated meanwhile.
			if grew, budget := after.TotalAlloc-before.TotalAlloc, uint64(4096*len(data)+1<<20); grew > budget {
				t.Fatalf("%T: decoding %d bytes allocated %d, budget %d", env, len(data), grew, budget)
			}
			if err != nil {
				continue
			}
			frame, err := encodeWire2(nil, env)
			if err != nil {
				t.Fatalf("%T: decoded frame does not re-encode: %v", env, err)
			}
			again := reflect.New(reflect.TypeOf(env).Elem()).Interface()
			if err := decodeWire2(frame, again); err != nil {
				t.Fatalf("%T: re-encoded frame does not decode: %v", env, err)
			}
			if !reflect.DeepEqual(env, again) {
				t.Fatalf("%T: re-encoded frame decodes differently:\nfirst:  %+v\nsecond: %+v", env, env, again)
			}
		}
	})
}

// finalReplyDropper drops the reply to a worker's final commit once, after
// the coordinator applied it, so the worker redelivers the same frame.
type finalReplyDropper struct {
	inner   Doer
	dropped bool
}

func (d *finalReplyDropper) Do(req *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	req.Body = io.NopCloser(bytes.NewReader(body))
	var commit CommitRequest
	final := strings.HasSuffix(req.URL.Path, "/commit") && decodeWire2(body, &commit) == nil && commit.Final
	resp, err := d.inner.Do(req)
	if err != nil || !final || d.dropped {
		return resp, err
	}
	d.dropped = true
	resp.Body.Close()
	return nil, io.ErrUnexpectedEOF
}

// TestCodecV2DuplicateCommits: a redelivered commit arrives as the identical
// frame. Non-final duplicates are acknowledged without being re-absorbed
// (TestDistributedDuplicateCommits); a duplicated final commit finds its lease
// already retired and is fenced as stale, which the worker takes as the end
// of the lease. Either way the merge stays exact.
func TestCodecV2DuplicateCommits(t *testing.T) {
	serial := serialReference(t, "bugs", distOpts())
	h := newHarness(t)
	id := h.submit("bugs", distOpts())
	dropper := &finalReplyDropper{inner: h.fabric.Client("w1")}
	w, err := NewWorker(WorkerConfig{
		Name:        "w1",
		BaseURL:     "http://coordinator",
		Client:      dropper,
		Resolve:     testResolver,
		MaxRetries:  2,
		Sleep:       func(time.Duration) {},
		CommitEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if !dropper.dropped {
		t.Fatal("no final commit reply was dropped")
	}
	conform.Exact(t, "duplicate-final-commit", serialView(serial), h.result(id).view())
}
