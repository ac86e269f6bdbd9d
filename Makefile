# Developer / CI entry points. `make verify` is the gate every change must
# pass: vet, full build, the full test suite, a race-detector pass over the
# packages with shared mutable state (the parallel exploration driver and the
# TSO simulation and paged store arena it drives), and the allocation gates
# (allocs). explain-smoke and scrape-smoke drive the forensics and
# telemetry surfaces end to end. Timing lives elsewhere: the benchmark of
# record is `sh benchmark/run.sh`, and `go run ./cmd/jaaru fig14` prints the
# paper's Figure 14 table.

GO ?= go

.PHONY: all build test vet race verify allocs explain-smoke scrape-smoke clean

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The partitioned-exploration driver (internal/core: the claim loop and the
# Frontier that Workers > 1 and the fleet share) and the per-worker state it
# exercises concurrently — the store-buffer machinery (internal/tso: the
# buffers' property tests, the line table) and the paged arena (internal/pmem: the
# node-shape fuzz against the map model, the page-index re-base) — get a
# dedicated race-detector pass, plus the root-package snapshot and POR equivalence suites, which drive the
# per-worker snapshot caches and the shared fingerprint seen-set under
# Workers=4. The distributed coordinator/worker path (internal/dist over the
# internal/netsim fabric) runs its whole equivalence suite under -race too:
# healthy fleets, a worker killed mid-lease with TTL expiry and requeue,
# duplicate commit delivery, transient outages, and graceful drain must all
# merge bit-identical to serial. The load-path dispatch equivalence
# (TestLoadDispatchEquivalence: serial vs replay oracle vs Workers=4 over
# every resolveLoad branch) lives in internal/core and so runs in the first
# pass. The benchlist pass adds the worst-case donation schedule
# (TestRangeDonationEquivalence: every lease split after every scenario,
# claims and POR memos handed between two runners), the Workers=2
# donation-cost gate, and the Figure 14 programs under every configuration
# (TestFigure14Conformance: replay oracle, POR off, Workers=4, and a netsim
# fleet of two with a worker killed mid-lease).
race:
	$(GO) test -race ./internal/core/ ./internal/tso/ ./internal/pmem/
	$(GO) test -race ./internal/dist/ ./internal/netsim/
	$(GO) test -race -run 'TestSnapshotEquivalence|TestPOREquivalence' .
	$(GO) test -race -run 'TestChoiceSnapshotEquivalence|TestRangeDonationEquivalence|TestParallelDonationCost|TestFigure14Conformance' ./internal/benchlist/

# Allocation-regression gates: the testing.AllocsPerRun pins that keep the
# paged-layout hot path (guest ops under the default eviction policy — Store8,
# Store64 as one arena node and as eight over bytes of mixed history, Load64,
# Clflush, Clflushopt, Sfence, Persist, a store with a forensics probe attached,
# the post-failure Load64 answered from the pinned summary — scenario
# reset, journal mark/rewind, AppendWord, pin + Stack.Load) at zero heap
# allocations once warmed, and the
# bytes-per-capture bound on the snapshot stack (a capture is a journal mark
# and a few scalars; an entry that copies per-scenario state fails it).
allocs:
	$(GO) test -run 'TestSteadyStateOpAllocations|TestScenarioResetAllocations|TestSnapshotBytesPerCapture' -count=1 ./internal/core/
	$(GO) test -run TestStackOpsAllocFree -count=1 ./internal/pmem/

verify: vet build test race allocs

# End-to-end forensics smoke: find the commitstore bug, minimize its choice
# prefix, build the witness, and validate the emitted JSON against the schema.
explain-smoke:
	$(GO) run ./cmd/jaaru-explain -buggy -minimize -json -validate commitstore > /dev/null

# Telemetry scrape smoke: boot a coordinator on an ephemeral TCP port, run a
# real worker fleet against it, GET /metrics and /v1/status over the wire,
# and validate the Prometheus exposition with the strict test parser.
scrape-smoke:
	$(GO) test -run TestScrapeSmoke -count=1 ./internal/dist/

clean:
	$(GO) clean ./...
