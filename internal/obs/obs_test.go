package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// Nil receivers are the disabled fast path: every hook must be a no-op.
func TestNilSafety(t *testing.T) {
	var c *Collector
	c.Add(Steps, 5)
	c.Inc(Scenarios)
	c.NotePeak(PeakSB, 9)

	var r *Registry
	if got := r.NewShard(); got != nil {
		t.Fatalf("nil registry NewShard = %v, want nil", got)
	}
	r.SetGoal(10)
	r.SetWorkers(4)
	r.NotePush(1, 2)
	r.NoteClaim(1)
	r.NoteDonation(3)
	r.Emit("ev", "k", 1)
	if err := r.Err(); err != nil {
		t.Fatalf("nil registry Err = %v", err)
	}
	if m := r.Snapshot(); m != (Metrics{}) {
		t.Fatalf("nil registry Snapshot = %+v, want zero", m)
	}
	if s := r.Progress(); s != "" {
		t.Fatalf("nil registry Progress = %q, want empty", s)
	}
}

// Shards sum; peaks take the max; driver counters ride along.
func TestSnapshotMergesShards(t *testing.T) {
	r := NewRegistry(nil)
	a, b := r.NewShard(), r.NewShard()
	a.Add(Scenarios, 3)
	b.Add(Scenarios, 4)
	a.Inc(ExecutionsPost)
	b.Add(ExecutionsPost, 2)
	a.NotePeak(PeakRFCandidates, 5)
	b.NotePeak(PeakRFCandidates, 9)
	b.NotePeak(PeakRFCandidates, 2) // lower: must not regress the max
	r.SetWorkers(2)
	r.NotePush(3, 3)
	r.NoteClaim(2)
	r.NoteDonation(2)

	m := r.Snapshot()
	if m.Scenarios != 7 || m.ExecutionsPost != 3 || m.Executions != 4 {
		t.Fatalf("sums wrong: %+v", m)
	}
	if m.MaxRFCandidates != 9 {
		t.Fatalf("MaxRFCandidates = %d, want 9", m.MaxRFCandidates)
	}
	if m.Workers != 2 || m.FrontierPushed != 3 || m.FrontierClaimed != 1 ||
		m.Donations != 2 || m.MaxFrontierLen != 3 {
		t.Fatalf("driver counters wrong: %+v", m)
	}
}

func TestCanonicalZeroesRunDependentFields(t *testing.T) {
	m := Metrics{
		Scenarios: 10, Executions: 11, ExecutionsPost: 10, Steps: 99,
		PreFailureNs: 1, PostFailureNs: 2, ReplayNs: 3,
		LoadRefinements: 4, RFCandidates: 8, MaxRFCandidates: 2,
		FrontierPushed: 5, FrontierClaimed: 5, Donations: 4,
		MaxFrontierLen: 3, Workers: 4, Events: 17,
	}
	c := m.Canonical()
	if c.PreFailureNs != 0 || c.PostFailureNs != 0 || c.ReplayNs != 0 ||
		c.FrontierPushed != 0 || c.FrontierClaimed != 0 || c.Donations != 0 ||
		c.MaxFrontierLen != 0 || c.Workers != 0 || c.Events != 0 {
		t.Fatalf("run-dependent fields not zeroed: %+v", c)
	}
	if c.Scenarios != 10 || c.Steps != 99 || c.LoadRefinements != 4 ||
		c.RFCandidates != 8 || c.MaxRFCandidates != 2 {
		t.Fatalf("partition-independent fields altered: %+v", c)
	}
}

// Every emitted line must be valid JSON with the common envelope fields,
// and concurrent emitters must not interleave lines.
func TestEventWriterJSONL(t *testing.T) {
	var buf bytes.Buffer
	r := NewRegistry(&buf)
	r.Emit("run_start", "program", "p", "workers", 2)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				r.Emit("scenario_end", "worker", w, "scenario", i, "ok", true)
			}
		}(w)
	}
	wg.Wait()
	if err := r.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}

	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 101 {
		t.Fatalf("got %d lines, want 101", len(lines))
	}
	for i, ln := range lines {
		var ev struct {
			TUs *int64 `json:"t_us"`
			Ev  string `json:"ev"`
		}
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i, err, ln)
		}
		if ev.TUs == nil || ev.Ev == "" {
			t.Fatalf("line %d missing envelope: %s", i, ln)
		}
	}
	if m := r.Snapshot(); m.Events != 101 {
		t.Fatalf("Events = %d, want 101", m.Events)
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	return 0, errors.New("disk full")
}

// A failing sink must not break the run: the first error is retained,
// later events are dropped (one failed write only), and counting continues.
func TestEventWriterRetainsFirstError(t *testing.T) {
	fw := &failWriter{}
	r := NewRegistry(fw)
	r.Emit("a")
	r.Emit("b")
	if err := r.Err(); err == nil {
		t.Fatal("Err = nil, want disk full")
	}
	if fw.n != 1 {
		t.Fatalf("writes after error: %d, want 1", fw.n)
	}
	if m := r.Snapshot(); m.Events != 2 {
		t.Fatalf("Events = %d, want 2", m.Events)
	}
}

func TestProgressMentionsGoal(t *testing.T) {
	r := NewRegistry(nil)
	s := r.NewShard()
	s.Add(Scenarios, 5)
	r.SetGoal(1000)
	out := r.Progress()
	if !strings.Contains(out, "5 scenarios") || !strings.Contains(out, "MaxScenarios") {
		t.Fatalf("Progress = %q", out)
	}
}

// FormatProgress is pinned with fixed inputs: percent-of-goal, rate, and ETA
// must all appear (and degrade gracefully without a goal or elapsed time).
func TestFormatProgress(t *testing.T) {
	m := Metrics{Scenarios: 250, Executions: 501}
	got := FormatProgress(m, 7, 1000, 10*time.Second)
	want := "250 scenarios (25%, 25/s), 501 executions, frontier 7, <=30s to MaxScenarios"
	if got != want {
		t.Errorf("with goal:\ngot  %q\nwant %q", got, want)
	}

	got = FormatProgress(m, 7, 0, 10*time.Second)
	want = "250 scenarios (25/s), 501 executions, frontier 7"
	if got != want {
		t.Errorf("no goal:\ngot  %q\nwant %q", got, want)
	}

	// At or past the goal the ETA clause drops.
	got = FormatProgress(Metrics{Scenarios: 1000, Executions: 2001}, 0, 1000, 4*time.Second)
	want = "1000 scenarios (100%, 250/s), 2001 executions, frontier 0"
	if got != want {
		t.Errorf("at goal:\ngot  %q\nwant %q", got, want)
	}

	// Zero elapsed: no rate, no ETA division.
	got = FormatProgress(m, 0, 1000, 0)
	want = "250 scenarios (25%, 0/s), 501 executions, frontier 0"
	if got != want {
		t.Errorf("zero elapsed:\ngot  %q\nwant %q", got, want)
	}
}

// Exhaustiveness gate (reflection): Metrics must stay a flat struct of int64
// fields — that is what makes two snapshots comparable with == wherever
// results are compared — and every wall-clock field (json tag ending "_ns")
// must be zeroed by Canonical. A future timing counter that is added to
// Metrics without a Canonical entry fails here, not in a flaky determinism
// suite three layers up.
func TestCanonicalZeroesEveryTimingCounter(t *testing.T) {
	typ := reflect.TypeOf(Metrics{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Int64 {
			t.Errorf("Metrics.%s is %s; histograms and other non-int64 state must live outside Metrics", f.Name, f.Type)
			continue
		}
		tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if tag == "" {
			t.Errorf("Metrics.%s has no json tag", f.Name)
		}
		// Wall-clock timings and the wire-level data-plane accounting both
		// depend on run conditions, never on the exploration result, so
		// Canonical must zero every one of them.
		if !strings.HasSuffix(tag, "_ns") &&
			!strings.HasPrefix(tag, "bytes_") && tag != "commit_batch_size" {
			continue
		}
		var m Metrics
		reflect.ValueOf(&m).Elem().Field(i).SetInt(12345)
		if got := m.Canonical(); got != (Metrics{}) {
			t.Errorf("Canonical leaves run-dependent field %s visible: %+v", f.Name, got)
		}
	}
}

// The same gate at the counter layer: feeding 1 into any "_ns" counter (via
// a real shard) must not change the canonical snapshot, and every counter
// must have an exposition name.
func TestCanonicalZeroesEveryTimingCounterViaShard(t *testing.T) {
	baseline := (&Registry{}).Snapshot().Canonical()
	seen := map[string]bool{}
	for k := Counter(0); int(k) < NumCounters; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "counter(") {
			t.Errorf("counter %d has no exposition name", k)
		}
		if seen[name] {
			t.Errorf("duplicate counter name %q", name)
		}
		seen[name] = true
		if !strings.HasSuffix(name, "_ns") {
			continue
		}
		r := NewRegistry(nil)
		r.NewShard().Add(k, 1)
		if got := r.Snapshot().Canonical(); got != baseline {
			t.Errorf("counter %s leaks into Canonical: %+v", name, got)
		}
	}
	for tm := Timer(0); int(tm) < NumTimers; tm++ {
		if name := tm.String(); name == "" || strings.HasPrefix(name, "timer(") {
			t.Errorf("timer %d has no exposition name", tm)
		}
	}
	// Timer histograms live entirely outside Metrics: observing must not
	// change any snapshot at all, canonical or not.
	r := NewRegistry(nil)
	r.NewShard().Observe(TimerPreFailure, 123456)
	if got, want := r.Snapshot(), (&Registry{}).Snapshot(); got != want {
		t.Errorf("histogram observation leaked into Metrics: %+v", got)
	}
	if h := r.Histograms()[TimerPreFailure]; h.Count != 1 {
		t.Errorf("histogram lost the observation: %+v", h)
	}
}

// Registry.Histograms merges shards bucket-wise, and the collector hooks are
// nil-safe like every other hook.
func TestRegistryHistograms(t *testing.T) {
	var nc *Collector
	nc.Observe(TimerReplay, 5)
	if s := nc.HistSnapshots(); s[TimerReplay].Count != 0 {
		t.Fatalf("nil collector HistSnapshots = %+v", s)
	}
	nc.AddHist(TimerReplay, HistSnapshot{Count: 1})
	var nr *Registry
	if v := nr.Histograms(); v[TimerReplay].Count != 0 {
		t.Fatalf("nil registry Histograms = %+v", v)
	}
	if nr.Goal() != 0 || nr.FrontierLen() != 0 || nr.Uptime() != 0 {
		t.Fatal("nil registry accessors not zero")
	}

	r := NewRegistry(nil)
	a, b := r.NewShard(), r.NewShard()
	a.Observe(TimerLeaseClaim, 100)
	a.Observe(TimerLeaseClaim, 200)
	b.Observe(TimerLeaseClaim, 300)
	b.Observe(TimerFingerprint, 50)
	v := r.Histograms()
	if v[TimerLeaseClaim].Count != 3 || v[TimerLeaseClaim].Sum != 600 {
		t.Fatalf("lease_claim merge = %+v", v[TimerLeaseClaim])
	}
	if v[TimerFingerprint].Count != 1 {
		t.Fatalf("fingerprint merge = %+v", v[TimerFingerprint])
	}
}
