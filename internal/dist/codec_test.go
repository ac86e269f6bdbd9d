package dist

import (
	"bytes"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"jaaru/internal/conform"
	"jaaru/internal/core"
)

// ---- frame round trips ------------------------------------------------------

func testClaims() []core.WireClaim {
	return []core.WireClaim{
		{
			Points: []core.WirePoint{
				{Kind: "fail", N: 4, Idx: 1},
				{Kind: "rf", N: 3, Idx: 2},
				{Kind: "evict", N: 2, Idx: 0},
			},
			Limits: []int{3, 3, 1},
			Memos:  []*core.WireMemo{{FP: 0xdeadbeef, Steps: 42, Vec: []int64{1, 0, 7}}, nil, nil},
		},
		{
			// A frozen donated split: same prefix as above (exercises the
			// codec's prefix interning), no limits, no memos.
			Points: []core.WirePoint{
				{Kind: "fail", N: 4, Idx: 1},
				{Kind: "rf", N: 3, Idx: 0},
			},
		},
	}
}

func testPorEntries() []core.WirePorEntry {
	return []core.WirePorEntry{
		{FP: 0x1234, Delta: core.WirePorDelta{
			Scenarios: 5, Execs: 7, Steps: 99, MaxRF: 2, MaxRel: 1,
			NewPoints: [3]int{1, 2, 0}, Replayed: 3, Fresh: 2,
			Bugs: []core.WirePorBug{{
				Type: 1, Message: "torn line", Exec: 4, Count: 2, Rel: "0,1",
				Suffix: []core.WirePoint{{Kind: "rf", N: 2, Idx: 1}},
			}},
		}},
		{FP: 0x5678, Delta: core.WirePorDelta{Scenarios: 1, Execs: 1, Steps: 8, Fresh: 1}},
	}
}

// testEnvelopes is every protocol envelope shape: the first of each kind is
// the richest, and the one FuzzDecodeWire2's committed corpus was made from.
func testEnvelopes() []any {
	delta := &core.WireStats{
		Scenarios: 9, ExecsPost: 8, FpointsPre: 7, Steps: 1234, MaxRF: 3,
		NewPoints: [3]int{2, 1, 0},
	}
	return []any{
		&LeaseRequest{Worker: "w1", JobID: "j1", PorVersion: 5},
		&LeaseResponse{
			Status: StatusGranted,
			Lease: &Lease{
				ID: "l1", Token: "tok-1", JobID: "j1",
				Spec:   ProgSpec{Bench: "tree", N: 6, Buggy: true},
				Opts:   distOpts(),
				Claims: testClaims(),
				TTLMs:  60000,
			},
			Hungry: true, Por: testPorEntries(), PorVersion: 2,
		},
		&LeaseResponse{Status: StatusIdle, RetryMs: 250},
		&LeaseResponse{Status: StatusShutdown},
		&CommitRequest{
			Token: "tok-1", Seq: 3,
			Splits:    testClaims()[1:],
			Residuals: testClaims()[:1],
			Delta:     delta, Final: true,
			Por: testPorEntries(), PorVersion: 4,
		},
		&CommitRequest{Token: "tok-2", Seq: 1, Delta: &core.WireStats{}},
		&CommitResponse{Stale: true, Stopped: true, Hungry: true, Por: testPorEntries()[:1], PorVersion: 9},
		&CommitResponse{},
		&HeartbeatRequest{Token: "tok-1"},
		&HeartbeatResponse{Stale: true, Stopped: true},
	}
}

// TestWire2FrameRoundTrip drives every protocol envelope through the v2
// framing and back, expecting exact structural equality.
func TestWire2FrameRoundTrip(t *testing.T) {
	for _, env := range testEnvelopes() {
		frame, err := encodeWire2(nil, env)
		if err != nil {
			t.Fatalf("%T: encode: %v", env, err)
		}
		got := reflect.New(reflect.TypeOf(env).Elem()).Interface()
		if err := decodeWire2(frame, got); err != nil {
			t.Fatalf("%T: decode: %v", env, err)
		}
		if !reflect.DeepEqual(env, got) {
			t.Errorf("%T: round trip differs:\nin:  %+v\nout: %+v", env, env, got)
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
