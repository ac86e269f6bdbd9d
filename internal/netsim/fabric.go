package netsim

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"
)

// Fabric is the distributed-exploration analog of this package's recorded
// client traces: a deterministic in-process HTTP transport. Worker peers
// talk to an http.Handler (the dist coordinator) through per-peer clients
// whose faults — transient failures, dropped replies and permanent kills —
// are injected by the test instead of arising from a real network, so the
// whole coordinator/worker path runs reproducibly inside go test.
//
// Every request is served synchronously on the caller's goroutine via an
// httptest recorder; there are no real sockets, timers, or buffers, so the
// only nondeterminism left in a fabric-backed distributed run is goroutine
// scheduling — which the dist protocol's order-insensitive merge absorbs.
type Fabric struct {
	handler http.Handler

	mu    sync.Mutex
	peers map[string]*peerState
	clock *Clock
}

type peerState struct {
	// requests counts attempts by this peer, including faulted ones.
	requests int
	// killAfter kills the peer permanently after that many successful
	// requests (0: never).
	killAfter int
	dead      bool
	// failNext fails the next n requests before they reach the handler
	// (transient outage; the peer recovers afterwards).
	failNext int
	// dropNext lets the next n requests reach the handler but drops the
	// responses (exercises retry idempotency on the receiver).
	dropNext int
	// latency is the injected one-way hop delay: the fabric clock advances
	// by latency before the handler runs (request hop) and again after it
	// returns (reply hop), so a successful round trip costs exactly
	// 2*latency on the fake timeline. Requires a clock via SetClock.
	latency time.Duration
	// bytesTx counts request-body bytes the peer put on the wire (requests
	// that reached the handler; faulted-in-transit requests never left).
	// bytesRx counts response-body bytes delivered back (dropped replies
	// are not delivered, so they don't count).
	bytesTx int64
	bytesRx int64
}

// NewFabric wraps a handler (typically a dist.Coordinator) in a
// deterministic transport.
func NewFabric(h http.Handler) *Fabric {
	return &Fabric{handler: h, peers: make(map[string]*peerState)}
}

func (f *Fabric) peer(name string) *peerState {
	p, ok := f.peers[name]
	if !ok {
		p = &peerState{}
		f.peers[name] = p
	}
	return p
}

// KillAfter kills peer permanently after its next n successful requests —
// the "worker dies mid-lease" fault. n = 0 kills immediately.
func (f *Fabric) KillAfter(peer string, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p := f.peer(peer)
	if n <= 0 {
		p.dead = true
		return
	}
	p.killAfter = p.requests + n
}

// FailNext makes peer's next n requests fail in transit (before reaching
// the handler); the peer recovers afterwards.
func (f *Fabric) FailNext(peer string, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.peer(peer).failNext = n
}

// DropReplies lets peer's next n requests reach the handler but loses the
// responses — the fault that forces duplicate commit deliveries.
func (f *Fabric) DropReplies(peer string, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.peer(peer).dropNext = n
}

// SetClock installs the fake clock that per-hop latency advances. The same
// clock should drive the coordinator's and workers' Now, so injected network
// delay is visible to lease TTLs and to RPC round-trip timing.
func (f *Fabric) SetClock(c *Clock) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.clock = c
}

// SetLatency injects a deterministic one-way hop delay for peer: every
// successful request advances the fabric clock by d on the way in and d on
// the way out (dropped replies still pay both hops — the handler ran and the
// reply was lost in transit; transit failures pay none). A zero d removes
// the delay. No-op timing-wise until SetClock installs a clock.
func (f *Fabric) SetLatency(peer string, d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.peer(peer).latency = d
}

// Bytes reports the peer's wire-byte totals: request-body bytes sent toward
// the handler and response-body bytes delivered back. Both counts are exact
// and deterministic — the fabric measures the serialized bodies on each hop,
// so codec-level size changes (JSON vs binary) are directly observable in
// tests and benchmarks.
func (f *Fabric) Bytes(peer string) (tx, rx int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p := f.peer(peer)
	return p.bytesTx, p.bytesRx
}

// TotalBytes sums both directions across every peer — the whole fleet's wire
// traffic.
func (f *Fabric) TotalBytes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var total int64
	for _, p := range f.peers {
		total += p.bytesTx + p.bytesRx
	}
	return total
}

// Client returns the transport for one named peer. It satisfies the dist
// package's Doer interface.
func (f *Fabric) Client(peer string) *FabricClient {
	return &FabricClient{fabric: f, peer: peer}
}

// FabricClient is one peer's view of the fabric.
type FabricClient struct {
	fabric *Fabric
	peer   string
}

// Do serves the request through the fabric, applying the peer's injected
// faults.
func (c *FabricClient) Do(req *http.Request) (*http.Response, error) {
	f := c.fabric
	f.mu.Lock()
	p := f.peer(c.peer)
	p.requests++
	switch {
	case p.dead:
		f.mu.Unlock()
		return nil, fmt.Errorf("netsim: peer %s is dead", c.peer)
	case p.failNext > 0:
		p.failNext--
		f.mu.Unlock()
		return nil, fmt.Errorf("netsim: injected transit failure for %s", c.peer)
	}
	drop := false
	if p.dropNext > 0 {
		p.dropNext--
		drop = true
	}
	if p.killAfter > 0 && p.requests >= p.killAfter {
		p.dead = true
	}
	clock, latency := f.clock, p.latency
	f.mu.Unlock()

	// Measure the request body on its way in (the handler consumes the
	// original reader, so rewrap a copy).
	var reqBytes int64
	if req.Body != nil {
		data, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("netsim: read request body for %s: %w", c.peer, err)
		}
		reqBytes = int64(len(data))
		req.Body = io.NopCloser(bytes.NewReader(data))
	}

	if clock != nil {
		clock.Advance(latency) // request hop
	}
	rec := httptest.NewRecorder()
	f.handler.ServeHTTP(rec, req)
	if clock != nil {
		clock.Advance(latency) // reply hop (paid even when the reply drops)
	}

	f.mu.Lock()
	p.bytesTx += reqBytes
	if !drop {
		p.bytesRx += int64(rec.Body.Len())
	}
	f.mu.Unlock()

	if drop {
		return nil, fmt.Errorf("netsim: reply dropped for %s", c.peer)
	}
	return rec.Result(), nil
}
