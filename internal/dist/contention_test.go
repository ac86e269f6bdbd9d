package dist

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"jaaru/internal/core"
	"jaaru/internal/netsim"
)

// mutexProbeWriter is an http.ResponseWriter that asserts the coordinator
// mutex is NOT held whenever the handler writes the response. Holding c.mu
// across encode/write was the coordinator's worst hot-path contention point:
// every commit serialized behind whichever response was being marshalled.
// This is the regression gate for the marshal-outside-mutex invariant.
type mutexProbeWriter struct {
	t    *testing.T
	c    *Coordinator
	rec  *httptest.ResponseRecorder
	path string
}

func (w *mutexProbeWriter) Header() http.Header { return w.rec.Header() }

func (w *mutexProbeWriter) WriteHeader(code int) {
	w.probe("WriteHeader")
	w.rec.WriteHeader(code)
}

func (w *mutexProbeWriter) Write(b []byte) (int, error) {
	w.probe("Write")
	return w.rec.Write(b)
}

// probe fails the test when c.mu is locked at write time. The probing
// conversation is strictly sequential, so a failed TryLock can only mean the
// handler itself still holds the mutex.
func (w *mutexProbeWriter) probe(op string) {
	w.t.Helper()
	if w.c.mu.TryLock() {
		w.c.mu.Unlock()
		return
	}
	w.t.Errorf("%s: coordinator mutex held during response %s", w.path, op)
}

// probeTransport is a Doer that serves requests straight into the
// coordinator through a mutexProbeWriter.
type probeTransport struct {
	t *testing.T
	c *Coordinator
}

func (p *probeTransport) Do(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	p.c.ServeHTTP(&mutexProbeWriter{t: p.t, c: p.c, rec: rec, path: req.URL.Path}, req)
	return rec.Result(), nil
}

func (p *probeTransport) post(path string, body, out any) {
	p.t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		p.t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPost, "http://coordinator"+path, bytes.NewReader(payload))
	resp, _ := p.Do(req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		p.t.Fatalf("POST %s: HTTP %d", path, resp.StatusCode)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			p.t.Fatal(err)
		}
	}
}

func (p *probeTransport) get(path string) {
	p.t.Helper()
	req, _ := http.NewRequest(http.MethodGet, "http://coordinator"+path, nil)
	resp, _ := p.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		p.t.Fatalf("GET %s: HTTP %d", path, resp.StatusCode)
	}
}

// TestCoordinatorEncodesOutsideMutex runs a complete lease conversation —
// submit, lease grants, pipelined commits, heartbeat, status polls, metrics
// scrape — through a writer that fails the moment any response is encoded or
// written while c.mu is held, under both wire codecs. The coordinator's own
// copy of the guest runs only when a finished job's bug traces are replayed
// (workers resolve theirs separately), so it carries the same probe: a replay
// is a whole guest execution and must not run under c.mu either — and it runs
// once per bug however often the job is polled.
func TestCoordinatorEncodesOutsideMutex(t *testing.T) {
	for _, codec := range []string{CodecV1, CodecAuto} {
		t.Run("codec="+codec, func(t *testing.T) {
			clock := netsim.NewClock()
			var coord *Coordinator
			replays := 0
			coord, err := NewCoordinator(Config{
				Resolve: func(spec ProgSpec) (core.Program, error) {
					prog, err := testResolver(spec)
					run := prog.Run
					prog.Run = func(c *core.Context) {
						replays++
						if !coord.mu.TryLock() {
							t.Error("coordinator mutex held while a bug trace is replayed")
						} else {
							coord.mu.Unlock()
						}
						run(c)
					}
					return prog, err
				},
				Now:              clock.Now,
				ShutdownWhenDone: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			probe := &probeTransport{t: t, c: coord}

			var jr JobResponse
			probe.post("/v1/jobs", JobRequest{Spec: ProgSpec{Bench: "bugs"}, Opts: distOpts()}, &jr)

			w, err := NewWorker(WorkerConfig{
				Name:        "w1",
				BaseURL:     "http://coordinator",
				Client:      probe,
				Resolve:     testResolver,
				MaxRetries:  2,
				Backoff:     time.Microsecond,
				Sleep:       func(time.Duration) {},
				CommitEvery: 1, // maximize commit traffic through the probe
				Codec:       codec,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Heartbeats renew through their own handler; exercise it with a
			// live token by heartbeating an unknown lease (the 409 conflict
			// path writes a response too).
			hbReq, _ := json.Marshal(HeartbeatRequest{Token: "bogus"})
			r, _ := http.NewRequest(http.MethodPost, "http://coordinator/v1/leases/l1/heartbeat", bytes.NewReader(hbReq))
			resp, _ := probe.Do(r)
			resp.Body.Close()

			if err := w.Run(); err != nil {
				t.Fatal(err)
			}
			probe.get("/v1/jobs/" + jr.ID)
			probe.get("/v1/jobs/" + jr.ID)
			if bugs := len(coord.jobs[jr.ID].result.Bugs); bugs == 0 || replays != bugs {
				t.Errorf("two polls of the finished job replayed %d traces for %d bugs", replays, bugs)
			}
			probe.get("/v1/status")
			probe.get("/metrics")
		})
	}
}
