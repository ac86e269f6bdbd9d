package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"jaaru/internal/benchlist"
	"jaaru/internal/core"
	"jaaru/internal/dist"
	"jaaru/internal/pmem"
	"jaaru/internal/tso"
)

// prober times calls into single layers through their exported functions.
// Every probe runs for about dur and reports time per unit of work; the spans
// it records make the probes visible in the trace beside the repetitions.
type prober struct {
	dur    time.Duration
	rng    *rand.Rand
	tr     *tracer
	parent int
	out    map[string]float64
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

// loop calls fn, which does some units of work and returns how many, until
// dur has passed, and returns nanoseconds per unit. fn must do enough work
// per call (tens of microseconds) for the clock reads not to matter.
func (p *prober) loop(name string, fn func() int) float64 {
	sp := p.tr.begin("probe."+name, p.parent, -1)
	defer p.tr.end(sp)
	fn() // warm caches and pools
	units := 0
	start := time.Now()
	for {
		units += fn()
		if time.Since(start) >= p.dur {
			break
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(units)
}

// ---- core -----------------------------------------------------------------

// directRuns returns the pre-failure halves of the workload's guests with
// the options its driver runs them under.
func directRuns(w *workload, t tier) []bugCase {
	if w.kind == kindBugs {
		return bugCases(t)
	}
	prog := benchlist.Find(w.bench).Build(w.n[t], false)
	return []bugCase{{
		prog: func() core.Program { return prog },
		opts: core.Options{MaxSteps: 100_000}, // cmd/jaaru's budget
	}}
}

// images captures the pre-failure image of each of the workload's guests.
func (p *prober) images(runs []bugCase) []*image {
	sp := p.tr.begin("probe.pmem.capture_images", p.parent, -1)
	defer p.tr.end(sp)
	var images []*image
	for _, r := range runs {
		if img := captureImage(r.prog(), r.opts, p.rng); img != nil {
			images = append(images, img)
		}
	}
	return images
}

func (p *prober) core(runs []bugCase) {
	// Direct execution of the workload's own pre-failure code: guest-op
	// dispatch, scheduler, tso buffers and pmem appends, no failures.
	progs := make([]core.Program, len(runs))
	for i := range runs {
		progs[i] = runs[i].prog()
	}
	steps := 0
	p.out["core.direct_ns_per_step"] = p.loop("core.direct", func() int {
		steps = 0
		for i, pr := range progs {
			steps += int(core.Execute(pr.Name, pr.Run, core.Options{MaxSteps: runs[i].opts.MaxSteps}).Steps)
		}
		return steps
	})
	p.out["guest.pre_failure_steps"] = float64(steps)

	const words, lines = 256, 64
	// Post-failure loads of flushed data: every Load64 resolves 8 bytes
	// through the pre-failure candidate path.
	loads := 0
	loadProg := core.Program{
		Name: "probe/load64",
		Run: func(c *core.Context) {
			base := c.AllocLine(words * 8)
			for i := uint64(0); i < words; i++ {
				c.Store64(base.Add(8*i), i+1)
			}
			c.Persist(base, words*8)
			c.StorePtr(c.Root(), base)
			c.Persist(c.Root(), 8)
		},
		Recover: func(c *core.Context) {
			base := c.LoadPtr(c.Root())
			if base == 0 {
				return
			}
			for round := 0; round < 4; round++ {
				for i := uint64(0); i < words; i++ {
					sink += c.Load64(base.Add(8 * i))
					loads++
				}
			}
		},
	}
	p.out["core.load64_post_ns"] = p.loop("core.load64_post", func() int {
		loads = 0
		core.New(loadProg, core.Options{}).Run()
		return loads
	})

	p.out["core.store64_ns"] = p.loop("core.store64", func() int {
		const n = 50_000
		core.Execute("probe/store64", func(c *core.Context) {
			base := c.AllocLine(words * 8)
			for i := uint64(0); i < n; i++ {
				c.Store64(base.Add(8*(i%words)), i)
			}
		}, core.Options{})
		return n
	})

	p.out["core.persist_ns"] = p.loop("core.persist", func() int {
		const n = 10_000
		core.Execute("probe/persist", func(c *core.Context) {
			base := c.AllocLine(lines * pmem.CacheLineSize)
			for i := uint64(0); i < n; i++ {
				a := base.Add(pmem.CacheLineSize * (i % lines))
				c.Store64(a, i)
				c.Persist(a, 8)
			}
		}, core.Options{})
		return n
	})

	// Figure 4's commit store: two scenarios, so construction dominates.
	fig4 := core.Program{
		Name: "probe/figure4",
		Run: func(c *core.Context) {
			tmp := c.AllocLine(8)
			c.Store64(tmp, 0xD0D0)
			c.Clflush(tmp, 8)
			c.StorePtr(c.Root(), tmp)
			c.Clflush(c.Root(), 8)
		},
		Recover: func(c *core.Context) {
			if child := c.LoadPtr(c.Root()); child != 0 {
				sink += c.Load64(child)
			}
		},
	}
	p.out["core.new_checker_us"] = p.loop("core.new_checker", func() int {
		for i := 0; i < 10; i++ {
			sink += uint64(core.New(fig4, core.Options{}).Run().Scenarios)
		}
		return 10
	}) / 1e3
}

// ---- pmem -----------------------------------------------------------------

// image is the persistent-memory state a guest's pre-failure Run leaves
// behind, measured rather than assumed: every byte store in sequence order,
// each flushed line's writeback bound, and the bytes a recovery can read in
// the order the read probe sweeps them.
type image struct {
	stores []imageStore
	begins []imageFlush
	sweep  []pmem.Addr
	lines  int
}

type imageStore struct {
	addr pmem.Addr
	pmem.ByteStore
}

type imageFlush struct {
	line pmem.Addr
	at   pmem.Seq
}

// captureImage runs the guest's first scenario (no failure before the end of
// Run) under core's Instrument hook, which hands out a copy of the storage
// state at every failure point, and keeps the last one: the end-of-run
// point's, or the last before a bug cut Run short. Instrument copies at every
// point, so this costs seconds on cceh-update n=1536 (9226 points); it runs
// once per traced run. A guest that reaches no failure point has no image.
func captureImage(prog core.Program, opts core.Options, rng *rand.Rand) *image {
	opts.MaxScenarios = 1
	ck := core.New(prog, opts)
	var last *core.Snapshot
	ck.Instrument(func(s *core.Snapshot) { last = s })
	ck.Run()
	if last == nil || len(last.Queues) == 0 {
		return nil
	}
	img := &image{}
	byLine := map[pmem.Addr][]pmem.Addr{}
	for a, q := range last.Queues {
		for _, bs := range q {
			img.stores = append(img.stores, imageStore{a, bs})
		}
		byLine[a.Line()] = append(byLine[a.Line()], a)
	}
	slices.SortFunc(img.stores, func(x, y imageStore) int {
		return cmp.Or(cmp.Compare(x.Seq, y.Seq), cmp.Compare(x.addr, y.addr))
	})
	for line, at := range last.Begins {
		img.begins = append(img.begins, imageFlush{line, at})
	}
	slices.SortFunc(img.begins, func(x, y imageFlush) int { return cmp.Compare(x.line, y.line) })

	// The sweep visits lines in seeded order and a line's bytes in address
	// order, as a recovery that follows pointers to nodes and reads them does.
	lines := make([]pmem.Addr, 0, len(byLine))
	for line := range byLine {
		lines = append(lines, line)
	}
	slices.Sort(lines)
	img.lines = len(lines)
	for _, i := range rng.Perm(len(lines)) {
		addrs := byLine[lines[i]]
		slices.Sort(addrs)
		img.sweep = append(img.sweep, addrs...)
	}
	return img
}

// pmem walks one pooled Stack through the life of a scenario on each of the
// workload's own images, timing each phase: recycle, rebuild the pre-failure
// image (every store, then every line's flush), fingerprint it cold, crash
// (Push), resolve every touched byte once, resolve them all again (the
// memoized path recovery code re-reading a word takes), rewind.
func (p *prober) pmem(images []*image) {
	sp := p.tr.begin("probe.pmem", p.parent, -1)
	defer p.tr.end(sp)

	var stores, flushes, bytes, lines int
	for _, img := range images {
		stores += len(img.stores)
		flushes += len(img.begins)
		bytes += len(img.sweep)
		lines += img.lines
	}
	p.out["pmem.image_lines"] = float64(lines)
	p.out["pmem.image_bytes"] = float64(bytes)
	p.out["pmem.image_stores"] = float64(stores)
	if bytes == 0 {
		return
	}

	pool := pmem.NewPool()
	var st *pmem.Stack
	var scratch []pmem.Candidate
	var tRecycle, tAppend, tFlush, tFP, tRead, tReread, tRewind time.Duration
	cycles, cands := 0, 0
	for start := time.Now(); cycles == 0 || time.Since(start) < 7*p.dur; cycles++ {
		for _, img := range images {
			t := time.Now()
			st = pool.Recycle(st)
			tRecycle += time.Since(t)
			st.EnableJournal()
			e := st.Top()

			t = time.Now()
			for _, s := range img.stores {
				e.Append(s.addr, s.Val, s.Seq)
			}
			tAppend += time.Since(t)

			t = time.Now()
			for _, f := range img.begins {
				st.FlushLine(f.line, f.at)
			}
			tFlush += time.Since(t)

			t = time.Now()
			sink += st.Fingerprint(pmem.FingerprintSeed)
			tFP += time.Since(t)

			mark := st.Mark()
			st.Push()
			t = time.Now()
			for _, a := range img.sweep {
				scratch = st.ReadPreFailureInto(a, scratch[:0])
				cands += len(scratch)
				st.DoRead(a, scratch[0])
			}
			tRead += time.Since(t)

			t = time.Now()
			for _, a := range img.sweep {
				scratch = st.ReadPreFailureInto(a, scratch[:0])
				st.DoRead(a, scratch[0])
			}
			tReread += time.Since(t)

			t = time.Now()
			st.Rewind(mark)
			tRewind += time.Since(t)
		}
	}

	per := func(d time.Duration, units int) float64 {
		if units == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(cycles*units)
	}
	p.out["pmem.read_ns_per_byte"] = per(tRead, bytes)
	p.out["pmem.reread_ns_per_byte"] = per(tReread, bytes)
	p.out["pmem.candidates_per_read"] = float64(cands) / float64(cycles*bytes)
	p.out["pmem.append_ns_per_byte"] = per(tAppend, stores)
	p.out["pmem.flushline_ns"] = per(tFlush, flushes)
	p.out["pmem.fingerprint_ns_per_line"] = per(tFP, lines)
	p.out["pmem.mark_rewind_ns"] = per(tRewind, len(images))
	p.out["pmem.recycle_ns"] = per(tRecycle, len(images))
}

// ---- tso ------------------------------------------------------------------

// nopStorage is a tso.Storage whose effects cost nothing, so the probes time
// the buffers alone.
type nopStorage struct{ seq pmem.Seq }

func (s *nopStorage) NextSeq() pmem.Seq                                  { s.seq++; return s.seq }
func (s *nopStorage) CurSeq() pmem.Seq                                   { return s.seq }
func (s *nopStorage) ApplyStore(pmem.Addr, int, uint64, pmem.Seq)        {}
func (s *nopStorage) ApplyCLFlush(pmem.Addr, pmem.Seq)                   {}
func (s *nopStorage) ApplyWriteback(pmem.Addr, pmem.Seq)                 {}
func (s *nopStorage) BeforeFlushEffect(tso.EntryKind, pmem.Addr, string) {}
func (s *nopStorage) SFenceEffect(int, string)                           {}

func (p *prober) tso() {
	const capacity = 64 // core's default Options.SBCapacity
	base := pmem.Addr(core.PoolBase)
	st := &nopStorage{}

	ts := tso.NewThreadState(capacity)
	p.out["tso.push_evict_ns"] = p.loop("tso.push_evict", func() int {
		for i := uint64(0); i < 1024; i++ {
			ts.Push(st, tso.Entry{Kind: tso.Store, Addr: base.Add(8 * (i % capacity)), Size: 8, Val: i})
			ts.EvictOldest(st)
		}
		return 1024
	})

	// Bypass lookup of the oldest entry of a full buffer: the whole scan.
	full := tso.NewThreadState(capacity)
	for i := uint64(0); i < capacity; i++ {
		full.Push(st, tso.Entry{Kind: tso.Store, Addr: base.Add(8 * i), Size: 8, Val: i})
	}
	p.out["tso.lookup_ns"] = p.loop("tso.lookup", func() int {
		for i := 0; i < 1024; i++ {
			v, _ := full.Lookup(base)
			sink += uint64(v)
		}
		return 1024
	})

	// One clflushopt carried from Push through the flush buffer to its
	// writeback.
	fb := tso.NewThreadState(capacity)
	p.out["tso.drain_fb_ns"] = p.loop("tso.drain_fb", func() int {
		for i := uint64(0); i < capacity; i++ {
			fb.Push(st, tso.Entry{Kind: tso.CLFlushOpt, Addr: base.Add(pmem.CacheLineSize * i)})
			fb.EvictOldest(st)
		}
		fb.DrainFlushBuffer(st)
		return capacity
	})
}

// ---- wire, merge, lease ---------------------------------------------------

// commit is one LeaseSink.Commit call, kept as the codec and merge probes'
// input.
type commit struct {
	splits, residuals []core.WireClaim
	delta             *core.WireStats
}

// memSink is a coordinator that is never hungry and never stops: it only
// records what the lease runner commits.
type memSink struct{ commits []commit }

func (s *memSink) Hungry() bool   { return false }
func (s *memSink) Stopped() bool  { return false }
func (s *memSink) Draining() bool { return false }
func (s *memSink) Commit(splits, residuals []core.WireClaim, delta *core.WireStats, final bool) error {
	s.commits = append(s.commits, commit{splits, residuals, delta})
	return nil
}

// dataPlane probes what a fleet adds around the checker: the lease runner
// against an in-memory sink (versus a plain serial run of the same program),
// both wire codecs over the commits that run produced, and the merge.
func (p *prober) dataPlane(n int) error {
	prog := benchlist.Find("part").Build(n, false)
	opts := core.Options{}

	sp := p.tr.begin("probe.lease", p.parent, -1)
	var tSerial, tLease time.Duration
	var ms *memSink
	for start := time.Now(); time.Since(start) < 2*p.dur || ms == nil; {
		t := time.Now()
		core.New(prog, opts).Run()
		tSerial += time.Since(t)
		ms = &memSink{}
		t = time.Now()
		if err := core.NewLeaseRunner(prog, opts).RunLease([]core.WireClaim{{}}, ms); err != nil {
			p.tr.end(sp)
			return fmt.Errorf("lease probe: %v", err)
		}
		tLease += time.Since(t)
	}
	p.tr.end(sp)
	p.out["lease.overhead_ratio"] = float64(tLease) / float64(tSerial)
	commits := ms.commits

	enc := core.NewWireEncoder(nil)
	v2 := make([][]byte, len(commits))
	v1 := make([][]byte, len(commits))
	var v2Bytes, v1Bytes int
	encodeV2 := func(c commit) []byte {
		enc.Reset()
		enc.Claims(c.splits)
		enc.Claims(c.residuals)
		enc.Stats(c.delta)
		return enc.Bytes()
	}
	encodeV1 := func(c commit) []byte {
		b, _ := json.Marshal(&dist.CommitRequest{Splits: c.splits, Residuals: c.residuals, Delta: c.delta})
		return b
	}
	for i, c := range commits {
		v2[i] = append([]byte(nil), encodeV2(c)...)
		v1[i] = encodeV1(c)
		v2Bytes += len(v2[i])
		v1Bytes += len(v1[i])
	}
	p.out["wire.v2_bytes_per_commit"] = float64(v2Bytes) / float64(len(commits))
	p.out["wire.v1_bytes_per_commit"] = float64(v1Bytes) / float64(len(commits))

	p.out["wire.v2_encode_ns_per_commit"] = p.loop("wire.v2_encode", func() int {
		for _, c := range commits {
			sink += uint64(len(encodeV2(c)))
		}
		return len(commits)
	})
	p.out["wire.v1_encode_ns_per_commit"] = p.loop("wire.v1_encode", func() int {
		for _, c := range commits {
			sink += uint64(len(encodeV1(c)))
		}
		return len(commits)
	})
	var decodeErr error
	p.out["wire.v2_decode_ns_per_commit"] = p.loop("wire.v2_decode", func() int {
		for _, b := range v2 {
			d := core.NewWireDecoder(b)
			d.Claims()
			d.Claims()
			d.Stats()
			if err := d.Done(); err != nil {
				decodeErr = err
			}
		}
		return len(v2)
	})
	p.out["wire.v1_decode_ns_per_commit"] = p.loop("wire.v1_decode", func() int {
		for _, b := range v1 {
			var req dist.CommitRequest
			if err := json.Unmarshal(b, &req); err != nil {
				decodeErr = err
			}
		}
		return len(v1)
	})
	if decodeErr != nil {
		return fmt.Errorf("wire probe: %v", decodeErr)
	}

	sp = p.tr.begin("probe.merge.absorb", p.parent, -1)
	defer p.tr.end(sp)
	var tAbsorb time.Duration
	absorbed := 0
	for start := time.Now(); absorbed == 0 || time.Since(start) < p.dur; {
		acc := core.NewMergeAcc(prog, opts) // construction is not the merge
		t := time.Now()
		for _, c := range commits {
			if err := acc.Absorb(c.delta); err != nil {
				return fmt.Errorf("merge probe: %v", err)
			}
		}
		tAbsorb += time.Since(t)
		absorbed += len(commits)
	}
	p.out["merge.absorb_ns_per_commit"] = float64(tAbsorb.Nanoseconds()) / float64(absorbed)
	return nil
}
