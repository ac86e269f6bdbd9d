# Developer / CI entry points. `make verify` is the gate every change must
# pass: vet, full build, the full test suite, a race-detector pass over the
# packages with shared mutable state (the parallel exploration driver, the
# TSO simulation and paged store arena it drives, the distributed path, and
# the metrics registry and its exposition), and the allocation gates
# (allocs); the full suite drives every `jaaru` subcommand end to end
# (cmd/jaaru). scrape-smoke drives the telemetry surface over real TCP, and
# fuzz-smoke fuzzes the lease-path decoders and the line fingerprint for a
# bounded time.
# Timing lives elsewhere: the benchmark of record is `sh benchmark/run.sh`,
# and `go run ./cmd/jaaru fig14` prints the paper's Figure 14 table.

GO ?= go

.PHONY: all build test vet race verify allocs scrape-smoke fuzz-smoke clean

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The partitioned-exploration driver (internal/core: the claim loop and the
# Frontier that Workers > 1 and the fleet share), the store-buffer machinery
# (internal/tso) and the paged arena (internal/pmem) get a race-detector
# pass, as does the distributed path (internal/dist over the internal/netsim
# fabric: drain, parked leases, duplicate commits, a worker killed mid-lease).
# internal/benchlist runs in one pass: the conformance matrix (every program
# under the replay oracle, POR off, Workers=4, range donation and a netsim
# fleet of two, healthy and with a worker killed mid-lease, POR on and off)
# and the Workers=2 donation-cost gate. Its serial goldens (conformance and
# forensics) and trace pins run one exploration at a time, so they have
# nothing to race and are skipped.
# The metrics registry (internal/obs) and the exposition over it
# (internal/telemetry) race too: snapshots and scrapes read shards and
# driver signals while workers and the driver write them.
race:
	$(GO) test -race ./internal/core/ ./internal/tso/ ./internal/pmem/
	$(GO) test -race ./internal/obs/ ./internal/telemetry/
	$(GO) test -race ./internal/dist/ ./internal/netsim/
	$(GO) test -race -skip 'TestConformanceGolden|TestForensicsGolden|TestTraceIsReplayTail|TestBytePathRefinements' ./internal/benchlist/

# Allocation-regression gates: the testing.AllocsPerRun pins that keep the
# paged-layout hot path (guest ops under the default eviction policy — Store8,
# Store64 as one arena node and as eight over bytes of mixed history, Load64,
# Clflush, Clflushopt, Sfence, Persist, a store with a forensics probe attached,
# the post-failure Load64 answered from the pinned summary — scenario
# reset, journal mark/rewind, AppendWord, pin + Stack.Load, and a
# Stack.Fingerprint that rehashes every line of a recycled image) at zero heap
# allocations once warmed; the choice-snapshot push/pop cycle at zero, flags
# off and with the finding flags on over stats that already hold findings
# (latching the scenario baseline and measuring an entry's account of skipped
# work store nothing when the scenario adds nothing); the bytes-per-capture
# bound on the snapshot stack (a capture is a journal mark and a few scalars;
# an entry that copies per-scenario state fails it); and linear growth of the
# bytes POR subtree records allocate (a record that copies its prefix is
# quadratic); and the bytes one minimizer trial allocates, at most 16 KiB on
# three seeded bugs (trials share one recycled pool and stack; a trial that
# builds its own allocates 44-98 KB).
allocs:
	$(GO) test -run 'TestSteadyStateOpAllocations|TestScenarioResetAllocations|TestSnapshotBytesPerCapture|TestChoiceSnapshotPushPopAllocs|TestPORRecordMemoryLinear|TestMinimizeTrialBytes' -count=1 ./internal/core/
	$(GO) test -run 'TestStackOpsAllocFree|TestFingerprintAllocFree' -count=1 ./internal/pmem/

verify: vet build test race allocs

# Telemetry scrape smoke: boot a coordinator on an ephemeral TCP port, run a
# real worker fleet against it, GET /metrics and /v1/status over the wire,
# and validate the Prometheus exposition with the strict test parser.
scrape-smoke:
	$(GO) test -run TestScrapeSmoke -count=1 ./internal/dist/

# Decoder fuzz smoke: 10 s of fuzzing each, from the committed corpora, for
# the lease-path frame decoder (FuzzDecodeWire2) and the claim and stats
# decoders under it, which are the coordinator's only validation of what a
# worker sends (FuzzWireClaimValidate, FuzzWireStatsValidate); then 5 s of the
# line fingerprint against the byte-wise reference encoding it replaced
# (FuzzLineFingerprint: equal under one exactly when equal under the other).
# Not part of verify: its inputs differ run to run. The corpora and seeds
# alone run in `make test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeWire2$$' -fuzztime 10s -parallel 2 ./internal/dist/
	$(GO) test -run '^$$' -fuzz '^FuzzWireClaimValidate$$' -fuzztime 10s -parallel 2 ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzWireStatsValidate$$' -fuzztime 10s -parallel 2 ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzLineFingerprint$$' -fuzztime 5s -parallel 2 ./internal/pmem/

clean:
	$(GO) clean ./...
