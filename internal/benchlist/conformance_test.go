package benchlist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"jaaru/internal/conform"
	"jaaru/internal/core"
	"jaaru/internal/dist"
	"jaaru/internal/litmus"
	"jaaru/internal/netsim"
	"jaaru/internal/pmdk"
	"jaaru/internal/recipe"
)

// The conformance matrix: every way of exploring a program reports what the
// serial default run of the same program reports. Rows are programs, built
// fresh for every cell; columns are configurations; conform.Run compares
// each cell with the row's serial reference — exactly, or by the POR
// relation for the unpruned run — and each column checks that its own
// mechanism fired. A cell the matrix does not run is listed in skips, or in
// unkillable, with its reason.
//
// The matrix runs as one top-level test per row group. The groups keep the
// names of the suites they absorbed, so existing test names, and the -run
// patterns that select them, keep working.

// skips names every cell the matrix leaves out, by row, base and column.
var skips = map[string]string{
	"example/cceh-buggy/por=-1": loopWithoutPOR + " (37 s)",
	"recipe-bug/1/por=-1":       loopWithoutPOR + " (43 s)",

	"example/hashmap_tx-buggy/por=-1":                   "2 894 scenarios unpruned (2.2 s of cells): sweep/hashmap_tx-3-buggy/por=-1 runs the structure unpruned",
	"sweep/hashmap_tx-3-buggy/por=-1/donation":          hashmapUnpruned,
	"sweep/hashmap_tx-3-buggy/por=-1/fleet-of-2":        hashmapUnpruned,
	"sweep/hashmap_tx-3-buggy/por=-1/fleet-of-2-killed": hashmapUnpruned,
}

const (
	loopWithoutPOR  = "without POR, CCEH's looping recovery re-branches on every redundant read-from pick (ROADMAP item 8)"
	hashmapUnpruned = "7 735 scenarios unpruned (1.1 s of cells): the smaller rows run donation and fleets unpruned"
)

// unkillable rows finish their one scenario within the killed worker's four
// requests, leaving no lease to requeue: their fleet-of-2-killed cells check
// that they do, under every base, and skip.
var unkillable = map[string]bool{
	"litmus/mfence-makes-stores-visible": true,
	"litmus/store-buffer-bypass":         true,
	"litmus/store-buffering":             true,
}

var columns = []conform.Column{
	conform.SnapshotsOff,
	conform.POROff,
	conform.Workers(4),
	{Name: "donation/cadence=1", Partitioned: true, Run: donate(1)},
	{Name: "donation/cadence=7", Partitioned: true, Run: donate(7)},
	{Name: "fleet-of-2", Partitioned: true, Run: fleet(false)},
	{Name: "fleet-of-2-killed", Partitioned: true, Run: fleet(true)},
}

// Bases: the store-buffer and failure-count variants, and POR off, which
// makes every other column's reference the unpruned serial run. POR off
// drops the flags: unpruned, they merge as the row's own columns merge them,
// and their source-location lookups would double the base's cost.
var (
	eagerTwo      = conform.Base{Name: "eager/failures=2", Apply: func(o *core.Options) { o.Eviction, o.MaxFailures = core.EvictEager, 2 }}
	atFencesOne   = conform.Base{Name: "at-fences/failures=1", Apply: func(o *core.Options) { o.Eviction, o.SBCapacity, o.MaxFailures = core.EvictAtFences, 2, 1 }}
	atFencesTwo   = conform.Base{Name: "at-fences/failures=2", Apply: func(o *core.Options) { o.Eviction, o.SBCapacity, o.MaxFailures = core.EvictAtFences, 2, 2 }}
	porOff        = conform.Base{Name: "por=-1", Apply: func(o *core.Options) { o.POR, o.FlagMultiRF, o.FlagPerfIssues = -1, false, false }}
	evictionBases = []conform.Base{eagerTwo, atFencesOne, atFencesTwo}
)

// matrix runs rows under columns, in parallel with the other row groups.
func matrix(t *testing.T, rows []conform.Row, cols []conform.Column) {
	t.Parallel()
	conform.Run(t, rows, cols, skips)
}

// litmusRows is the litmus corpus, with the observations it reports.
func litmusRows() []conform.Row {
	var rows []conform.Row
	for _, tst := range litmus.Tests() {
		tst.Opts.FlagMultiRF, tst.Opts.FlagPerfIssues = true, true
		rows = append(rows, conform.Row{Name: "litmus/" + tst.Name, Build: tst.Prog, Opts: tst.Opts, Bases: evictionBases})
	}
	return rows
}

// fixedRow wraps a program builder that reports no observations.
func fixedRow(name string, build func() core.Program, opts core.Options) conform.Row {
	return conform.Row{Name: name, Build: func(func(string)) core.Program { return build() }, Opts: opts}
}

// registryRows is the benchmark registry at n = 2, clean and buggy; the
// fixed PMDK and RECIPE variants; the sweep set at the sizes it has always
// run at; and recurring-bug. The rows POR changes, and the sweep set, also
// run with POR off as their base: there the unpruned tree, its claims and
// its snapshots differ from the pruned ones.
func registryRows() []conform.Row {
	var rows []conform.Row
	opts := core.Options{MaxSteps: 2_000, FlagMultiRF: true, FlagPerfIssues: true}
	for _, b := range All() {
		for _, buggy := range []bool{false, true} {
			name := "example/" + b.Name
			if buggy {
				name += "-buggy"
			}
			rw := fixedRow(name, func() core.Program { return b.Build(2, buggy) }, opts)
			if b.Name == "commitstore" {
				rw.Bases = evictionBases
			}
			rows = append(rows, rw)
		}
	}
	for _, p := range append(pmdk.FixedPrograms(2), recipe.FixedPrograms(4)...) {
		rows = append(rows, fixedRow("fixed/"+p.Name, func() core.Program { return p }, opts))
	}
	commitstore := Find("commitstore")
	for _, sw := range []struct {
		name  string
		build func() core.Program
	}{
		{"commitstore-2failures", func() core.Program { return commitstore.Build(0, false) }},
		{"cceh-3", func() core.Program { return recipe.CCEHWorkload(3, recipe.CCEHBugs{}) }},
		{"clht-2", func() core.Program { return recipe.CLHTWorkload(2, recipe.CLHTBugs{}) }},
		{"fastfair-3-buggy", func() core.Program { return recipe.FastFairWorkload(3, recipe.FFBugs{NoHeaderFlush: true}) }},
		{"cceh-update-3x6", func() core.Program { return recipe.CCEHUpdateWorkload(3, 6) }},
		{"btree-4", func() core.Program { return pmdk.BTreeWorkload(4, pmdk.CreateBugs{}, pmdk.BTreeBugs{}) }},
		{"hashmap_tx-3-buggy", func() core.Program {
			return pmdk.HashmapTXWorkload(3, pmdk.HashmapTXBugs{Tx: pmdk.TxBugs{NoEntryFlush: true}})
		}},
	} {
		rw := fixedRow("sweep/"+sw.name, sw.build, core.Options{})
		if sw.name == "commitstore-2failures" {
			rw.Opts.MaxFailures = 2
		}
		rows = append(rows, rw)
	}
	rows = append(rows, fixedRow("recurring-bug", recurringBug, opts))
	for i := range rows {
		name := rows[i].Name
		rows[i].Prunes = prunes[name]
		if sweeps[name] {
			rows[i].Check = mustSweep
		}
		if prunes[name] || sweeps[name] || strings.HasPrefix(name, "sweep/") {
			rows[i].Bases = append(rows[i].Bases, porOff)
		}
	}
	return rows
}

// prunes lists the rows whose scenario count POR cuts: eliding redundant
// read-from picks drops whole scenarios.
var prunes = map[string]bool{
	"example/ctree-buggy": true, "example/hashmap_tx-buggy": true, "example/part-buggy": true,
	"sweep/hashmap_tx-3-buggy": true,
	"pmdk-bug/2":               true, "pmdk-bug/4": true, "pmdk-bug/6": true,
	"recipe-bug/4": true, "recipe-bug/6": true, "recipe-bug/8": true, "recipe-bug/9": true, "recipe-bug/18": true,
}

// sweeps lists the update rows, whose crash states recur: the fingerprint
// sweep must prune them, while the logical scenario count stays exact.
var sweeps = map[string]bool{
	"example/cceh-update": true, "example/cceh-update-buggy": true,
	"example/clht-update": true, "example/clht-update-buggy": true,
	"sweep/cceh-update-3x6": true, "recurring-bug": true,
}

func mustSweep(t testing.TB, ref *core.Result) {
	if ref.Metrics.ScenariosPruned == 0 {
		t.Errorf("%s: the fingerprint sweep pruned nothing: its cells are vacuous", ref.Program)
	}
}

// recurringBug rewrites a slot in place and mirrors it into a line flushed
// only one round later, so its crash states recur with period two and its
// bug manifests inside fingerprint-equivalent subtrees: a hit grafts the
// owner's bug under its own prefix, and which subtree is the owner depends
// on the partition.
func recurringBug() core.Program {
	return core.Program{
		Name: "recurring-bug",
		Run: func(c *core.Context) {
			slot, mirror := c.Root(), c.Root().Add(64)
			for r := uint64(0); r < 8; r++ {
				c.Store64(slot, r%2+1)
				c.Clflushopt(slot, 8)
				c.Sfence()
				c.Clflush(mirror, 8)
				c.Store64(mirror, r%2+1)
			}
		},
		Recover: func(c *core.Context) {
			v, m := c.Load64(c.Root()), c.Load64(c.Root().Add(64))
			c.Assert(m == 0 || m == v, "mirror %d disagrees with %d", m, v)
		},
	}
}

// seededRows is the Figure 12 + Figure 13 registry: 7 PMDK and 18 RECIPE
// seeded bugs, with the step budget tightened so an infinite loop costs
// 2 000 operations per manifestation.
func seededRows() []conform.Row {
	var rows []conform.Row
	opts := core.Options{MaxSteps: 2_000}
	for _, bc := range pmdk.BugCases() {
		rows = append(rows, fixedRow(fmt.Sprintf("pmdk-bug/%d", bc.ID), bc.Program, opts))
	}
	for _, bc := range recipe.BugCases() {
		rows = append(rows, fixedRow(fmt.Sprintf("recipe-bug/%d", bc.ID), bc.Program, opts))
	}
	for i := range rows {
		rows[i].Prunes = prunes[rows[i].Name]
	}
	return rows
}

// TestChoiceSnapshotEquivalenceLitmus runs the matrix over the litmus
// corpus, under every base.
func TestChoiceSnapshotEquivalenceLitmus(t *testing.T) { matrix(t, litmusRows(), columns) }

// TestChoiceSnapshotEquivalenceWorkloads runs the matrix over the benchmark
// registry, the fixed variants and the sweep set, POR on and off.
func TestChoiceSnapshotEquivalenceWorkloads(t *testing.T) { matrix(t, registryRows(), columns) }

// TestSeededBugsFleetOfTwo runs the matrix over the 25 seeded bugs.
func TestSeededBugsFleetOfTwo(t *testing.T) { matrix(t, seededRows(), columns) }

// TestFigure14Conformance runs the matrix over the six fixed RECIPE programs
// of the paper's Figure 14 (§5.2) at scale 1.
func TestFigure14Conformance(t *testing.T) {
	var rows []conform.Row
	for _, p := range recipe.PerfWorkloads(1) {
		rows = append(rows, fixedRow(p.Name, func() core.Program { return p }, core.Options{}))
	}
	matrix(t, rows, columns)
}

// TestRangeDonationEquivalence runs the donation columns over three
// benchmarks at sizes whose claims split many levels deep.
func TestRangeDonationEquivalence(t *testing.T) {
	var rows []conform.Row
	for _, big := range []struct {
		bench string
		n     int
	}{{"part", 48}, {"cceh-update", 96}, {"pmserver", 12}} {
		b := Find(big.bench)
		rows = append(rows, fixedRow(fmt.Sprintf("%s-%d", big.bench, big.n),
			func() core.Program { return b.Build(big.n, false) }, core.Options{}))
	}
	matrix(t, rows, columns[3:5])
}

// hungrySink is the worst-case donation schedule for core.LeaseRunner: it is
// hungry at every cadence-th scenario for as long as the run lasts, so every
// lease is split again and again — down to single options — and each claim it
// is handed is queued for some other runner. Deltas fold into one MergeAcc,
// as at the coordinator; leases run to completion, so residuals are unused.
type hungrySink struct {
	t         *testing.T
	acc       *core.MergeAcc
	cadence   int
	calls     int
	queue     []core.WireClaim
	donations int
}

func (s *hungrySink) Hungry() bool   { s.calls++; return s.calls%s.cadence == 0 }
func (s *hungrySink) Stopped() bool  { return false }
func (s *hungrySink) Draining() bool { return false }

// Commit queues each split as a fleet would carry it: through the wire
// codec, whose decoder rejects a malformed claim.
func (s *hungrySink) Commit(splits, _ []core.WireClaim, delta *core.WireStats, _ bool) error {
	e := core.NewWireEncoder(nil)
	e.Claims(splits)
	d := core.NewWireDecoder(e.Bytes())
	s.queue = append(s.queue, d.Claims()...)
	if err := d.Done(); err != nil {
		s.t.Errorf("donated claims do not decode: %v", err)
	}
	s.donations += len(splits)
	return s.acc.Absorb(delta)
}

// donate explores a row as leases on two alternating runners, each with its
// own POR mirror synced through the publication log as a fleet's are, merged
// through MergeAcc: whatever the split schedule, the claims a chooser donates
// and the limits it keeps partition its work exactly.
func donate(cadence int) func(t *testing.T, rw conform.Row, opts core.Options) conform.View {
	return func(t *testing.T, rw conform.Row, opts core.Options) conform.View {
		var o conform.Obs
		build := func() core.Program { return rw.Build(o.Add) }
		sink := &hungrySink{t: t, acc: core.NewMergeAcc(build(), opts), cadence: cadence, queue: []core.WireClaim{{}}}
		runners := [2]*core.LeaseRunner{core.NewLeaseRunner(build(), opts), core.NewLeaseRunner(build(), opts)}
		var shipped [2]int // publication-log cursors
		for leases := 0; len(sink.queue) > 0; leases++ {
			claim := sink.queue[len(sink.queue)-1]
			sink.queue = sink.queue[:len(sink.queue)-1]
			me, peer := leases%2, 1-leases%2
			if err := runners[me].RunLease([]core.WireClaim{claim}, sink); err != nil {
				t.Fatalf("lease %d: %v", leases, err)
			}
			runners[peer].AbsorbPor(runners[me].DrainPor(shipped[me]))
			shipped[me], shipped[peer] = runners[me].PorVersion(), runners[peer].PorVersion()
		}
		res := sink.acc.BuildResult(true)
		if sink.donations == 0 && res.Scenarios > cadence {
			t.Errorf("%d scenarios and no claim was donated", res.Scenarios)
		}
		return conform.Of(res, o.Set())
	}
}

// fleet explores a row through a coordinator and two workers over the netsim
// fabric — leases, range donations, parked lease requests, MergeAcc — and
// reads the result off the job API as a client would. With kill, w1 claims
// the root lease alone, commits after every scenario and dies after four
// requests (the grant plus three commits); the coordinator's clock then
// passes the 30 s lease TTL, so w2 finds the residual requeued and explores
// it.
func fleet(kill bool) func(t *testing.T, rw conform.Row, opts core.Options) conform.View {
	return func(t *testing.T, rw conform.Row, opts core.Options) conform.View {
		var o conform.Obs
		resolve := func(dist.ProgSpec) (core.Program, error) { return rw.Build(o.Add), nil }
		clock := netsim.NewClock()
		coord, err := dist.NewCoordinator(dist.Config{
			Resolve: resolve, Now: clock.Now, ShutdownWhenDone: true, LeaseTTL: 30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		fabric := netsim.NewFabric(coord)
		rpc := func(method, path string, body, out any) {
			t.Helper()
			payload, _ := json.Marshal(body)
			req, _ := http.NewRequest(method, "http://coordinator"+path, bytes.NewReader(payload))
			resp, err := fabric.Client("client").Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: HTTP %d, %v", method, path, resp.StatusCode, err)
			}
		}
		worker := func(name string, commitEvery int) *dist.Worker {
			w, err := dist.NewWorker(dist.WorkerConfig{
				Name: name, BaseURL: "http://coordinator", Client: fabric.Client(name), Resolve: resolve,
				MaxRetries: 2, Sleep: func(time.Duration) {}, CommitEvery: commitEvery,
			})
			if err != nil {
				t.Fatal(err)
			}
			return w
		}
		var job dist.JobResponse
		rpc("POST", "/v1/jobs", dist.JobRequest{Spec: dist.ProgSpec{Bench: rw.Name}, Opts: opts}, &job)

		names := []string{"w1", "w2"}
		if kill {
			doomed := worker("w1", 1)
			fabric.KillAfter("w1", 4)
			if err := doomed.Run(); err == nil && unkillable[rw.Name] {
				t.Skip("one scenario: the exploration ends within the killed worker's four requests")
			} else if err == nil {
				t.Fatal("w1 finished within its kill budget; nothing was left mid-lease")
			} else if unkillable[rw.Name] {
				t.Error("listed as unkillable, yet w1 was killed mid-lease")
			}
			clock.Advance(61 * time.Second) // past the lease TTL
			names = names[1:]
		}
		var wg sync.WaitGroup
		errs := make([]error, len(names))
		for n, name := range names {
			w := worker(name, 0)
			wg.Add(1)
			go func() { defer wg.Done(); errs[n] = w.Run() }()
		}
		wg.Wait()
		for n, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", names[n], err)
			}
		}
		var raw json.RawMessage
		rpc("GET", "/v1/jobs/"+job.ID, nil, &raw)
		var st dist.JobStatus
		var traced struct {
			Result struct {
				Bugs []struct{ Trace []core.TraceOp }
			} `json:"result"`
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &traced); err != nil {
			t.Fatal(err)
		}
		if st.State != dist.JobDone {
			t.Fatalf("job %s after the fleet shut down", st.State)
		}
		res := st.Result
		if m := res.Metrics; kill && (m.LeaseRequeues < 1 || m.LeasesExpired < 1) {
			t.Errorf("killed worker's lease: %d requeues, %d expired; want >= 1 each", m.LeaseRequeues, m.LeasesExpired)
		}
		var traces [][]core.TraceOp
		for _, b := range traced.Result.Bugs {
			traces = append(traces, b.Trace)
		}
		return conform.Served(res, traces, o.Set())
	}
}

// TestFingerprintHitRepresentative: a fingerprint hit re-applies a subtree
// that another worker may have explored, so what a report carries — a flagged
// load's address and candidate values, a perf finding's line and count —
// must be the same whichever equivalent subtree ran. Before it was, in
// Workers: 4 runs made one at a time, clht-update's example carried a σ that
// depended on the partition in 2 to 15 runs of 700, and perf-update's
// redundant-fence count, whose prefix share a hit re-applied at the owner's
// crash depth, was off in 2 to 11 of 30. 700 and 100 runs pin them; the
// donation and fleet columns pin the perf share of memos that came off the
// wire.
func TestFingerprintHitRepresentative(t *testing.T) {
	perfUpdate := core.Program{
		Name: "perf-update",
		Run: func(c *core.Context) {
			for r := uint64(0); r < 8; r++ {
				c.Store64(c.Root(), r%2+1)
				c.Clflush(c.Root(), 8)
				c.Sfence() // redundant: clflush left nothing to order
			}
		},
		Recover: func(c *core.Context) {
			line := c.Root().Add(64 * (1 + c.Load64(c.Root())))
			c.Store64(line, 1)
			c.Clflush(line, 8)
			c.Clflush(line, 8) // redundant: the line named by the recovered value
		},
	}
	check := func(t testing.TB, ref *core.Result) {
		if ref.Metrics.FingerprintHits == 0 || len(ref.MultiRF)+len(ref.PerfIssues) == 0 {
			t.Fatalf("%d fingerprint hits, %d flagged loads, %d perf issues: nothing to pin",
				ref.Metrics.FingerprintHits, len(ref.MultiRF), len(ref.PerfIssues))
		}
	}
	rows := []conform.Row{
		fixedRow("clht-update", func() core.Program { return Find("clht-update").Build(2, true) },
			core.Options{FlagMultiRF: true}),
		fixedRow("perf-update", func() core.Program { return perfUpdate }, core.Options{FlagPerfIssues: true}),
	}
	for i := range rows {
		rows[i].Check = check
	}
	// The runs race their own workers, not each other: that is what showed
	// the defect.
	var one sync.Mutex
	for r, runs := range []int{700, 100} {
		cols := append([]conform.Column{conform.POROff}, columns[3:]...) // donation and fleets: claims off the wire
		for i := range runs {
			col := conform.Workers(4)
			col.Name += fmt.Sprintf("/run=%d", i)
			run := col.Run
			col.Run = func(t *testing.T, rw conform.Row, opts core.Options) conform.View {
				one.Lock()
				defer one.Unlock()
				return run(t, rw, opts)
			}
			cols = append(cols, col)
		}
		conform.Run(t, rows[r:r+1], cols, nil)
	}
}
