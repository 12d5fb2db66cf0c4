# Share — Stackelberg-Nash based Data Markets.

GO ?= go
GOFMT ?= gofmt

.PHONY: all build vet test race cover serve-smoke bench bench-compare figures figures-quick examples clean

all: build vet test

build:
	$(GO) build ./...

# go vet, then fail if gofmt would reformat any file.
vet:
	$(GO) vet ./...
	@unformatted="$$($(GOFMT) -l .)"; \
	if [ -n "$$unformatted" ]; then echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

# Race-detector run, vet first: the concurrency in internal/parallel and the
# sweep harnesses must stay clean under both. The explicit equivalence pass
# pins the moment-cached Shapley kernel to the seed-path estimator, the
# per-worker re-seeded permutation sources to fresh per-permutation rngs,
# every product's trade rounds to one result for every worker count, every
# round's transactions to the digests recorded before round scratch was
# reused (also with two markets trading interleaved and concurrently, and
# with rounds alternating per-round solver overrides), the
# free list that hands that scratch between goroutines, the in-place
# Laplace mechanism to the copying loop it replaced, and every row-major
# Dataset operation to the one-slice-per-row layout it replaced, under the
# race detector; the solver-backend pass pins cross-backend
# agreement, the Jacobi determinism guarantee and the Stage-3 τ-boundary
# cases of the general cascade, every backend's in-place SolveFor to the
# clone-and-solve path it replaced on quotes, and every backend's Bind of a
# shared precomputed game to a Precompute of its own; the pool pass pins
# per-market isolation, the delete-drain race, batch-quote determinism, the
# WAL crash-recovery torture sweeps (trade-only, roster-churn and budgeted
# histories, each now comparing the market's Info too), the
# restore of a log that paired each trade with a charge record, concurrent
# group commit, the admission gate (reject / queue / cancel),
# the terminal-close seal, the churn-vs-quote isolation of the
# copy-on-write view swap, the churned-checkpoint round trip, the
# budget-exhaustion-vs-quote isolation, the immutability of published
# views that share the committed ledger, the on-disk bytes of seller
# rows in WAL records and compaction snapshots, quotes into reused
# profiles while churn republishes the view, what a persisted trade
# allocates once each WAL record is encoded once, every view's backends
# bound to the inner market's committed game, quotes that survive mid-life
# leaves and a WAL-only reboot, a market's spec surviving a reboot, and
# compaction at the log-size trigger (snapshot output within 3× the log
# over a generated history, every reboot reproducing the live state),
# under the race detector (allocation bounds are checked only without it);
# the httpapi pass pins cross-market overload isolation end to end and
# that a quote's reused scratch never leaks into the next response; the
# wal pass pins concurrent group commit, the torn-tail sweep, every frame
# the in-place encoder writes to the marshal-twice framing it replaced,
# replay's envelope parse to json.Unmarshal into Record,
# and that a corrupt length makes replay allocate no more than the file,
# then fuzzes Open over arbitrary bytes after intact frames for 10 s,
# requiring every segment Open refuses to be reported as wal.ErrCorrupt;
# the pool fuzz passes restore arbitrary bytes as a market's snapshot file
# for 10 s, and as the data of one CRC-valid record after a traded
# market's log for 10 s, requiring data the pool cannot decode to be
# refused as wal.ErrCorrupt and every market that restores to answer a
# quote and a trade within a watchdog's bound (each fuzz pass spends at
# most 1 s minimizing a new input, not Go's default 60 s, so it keeps
# fuzzing for its 10 s); and the serve-smoke
# end-to-end pass
# rides along so the gate also
# exercises the live server lifecycle (boot, /v2 markets, trade, metrics,
# saturation via share-loadgen, SIGTERM drain, -snapshot-dir restore,
# kill -9 WAL replay).
race: vet
	$(GO) test -race ./...
	$(GO) test -race -run 'TestKernelEquivalence|TestPerWorkerStreamsMatchPerPermutationRngs|TestRunRoundShapleyIdenticalAcrossWorkers|TestRoundOutputsMatchParent|TestFreeListConcurrentOwnership|TestPerturbInPlace|TestLayoutMatchesRowSlices' -count=1 ./internal/valuation ./internal/market ./internal/parallel ./internal/ldp ./internal/dataset
	$(GO) test -race -run 'TestGeneralMatchesAnalytic|TestGeneralDeterministicAcrossWorkers|TestMapDeterministicAcrossWorkers|TestMeanFieldWithinTheoremBounds|TestSolveGeneralTau|TestSolveForMatchesCloneSolve|TestBindMatchesPrecompute' -count=1 ./internal/solve ./internal/core
	$(GO) test -race -run 'TestMarketsAreIsolated|TestDeleteDrainsInFlightRounds|TestBatchQuoteDeterminism|TestWALTortureRecovery|TestWALTortureBudgetRecovery|TestParentEraBudgetLogRestores|TestConcurrentTradesGroupCommit|TestAdmissionRejectsWhenQueueFull|TestAdmissionQueueWaitsForSlot|TestAdmissionQueuedTradeHonorsContext|TestCloseSealsPoolAgainstStragglers|TestAsyncCloseFlushesTail|TestChurnQuoteIsolation|TestChurnSurvivesCheckpoint|TestExhaustedTradesLeaveQuotesUndisturbed|TestPublishedViewStaysImmutable|TestSellerBytesOnDiskMatchParent|TestConcurrentQuotesDuringChurn|TestTradeBytesPerRound|TestViewsBindTheCommittedGame|TestLeaveQuotesSurviveReboot|TestSpecSurvivesReboot|TestWALCompaction|TestCompactionOutputBoundedByLog' -count=1 ./internal/pool
	$(GO) test -race -run 'TestOverloadIsolationAcrossMarkets|TestDrainAnswers503|TestQuoteScratchDoesNotLeak' -count=1 ./internal/httpapi
	$(GO) test -race -run 'TestConcurrentGroupCommit|TestTornTailTruncatedAtEveryOffset|TestAppendFramesMatchMarshal|TestEnvelopeMatchesUnmarshal|TestCorruptLengthAllocatesOnlyTheFile' -count=1 ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzOpen -fuzztime 10s -fuzzminimizetime 1s ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzRestoreSnapshot -fuzztime 10s -fuzzminimizetime 1s ./internal/pool
	$(GO) test -run '^$$' -fuzz FuzzReplayRecord -fuzztime 10s -fuzzminimizetime 1s ./internal/pool
	$(MAKE) serve-smoke

# Statement coverage for every package, failing if internal/solve — the
# backend seam every equilibrium consumer routes through — internal/pool
# — the multi-market engine behind /v2 — or internal/wal — the durability
# layer under every committed trade — drops below 80%.
cover:
	sh scripts/cover.sh

# Boot share-server, run a register/quote/trade/metrics sequence over HTTP
# plus the /v2 market lifecycle (create, batch quote, trade, delete) and
# SIGTERM it; then boot it over a -snapshot-dir and check that every market
# survives a graceful shutdown and, through WAL replay, a kill -9.
serve-smoke:
	sh scripts/serve_smoke.sh

# Go benchmarks: figures, ablations, the valuation kernel, trade rounds and
# solvers. The per-PR probe reports these replaced are kept, values
# unchanged, in bench_out/history.json; served numbers come from sharebench/.
bench:
	$(GO) test -bench=. -benchmem ./...

# The same-binary ratio benchmarks: the general cascade against its
# pre-optimization oracle (internal/core), incremental roster re-preparation
# against a fresh Precompute (internal/solve) and a budgeted trade against
# a budget-free twin (internal/pool). Each runs both sides in one process,
# takes the min of several runs and fails when its ratio misses its bound,
# so the gate does not depend on the machine's absolute speed.
bench-compare:
	$(GO) test -run '^$$' -bench '^BenchmarkRatio' -benchtime 1x ./internal/core ./internal/solve ./internal/pool

# Regenerate every evaluation figure (full scale, ~30 s) into bench_out_full/.
figures:
	$(GO) run ./cmd/share-bench -out bench_out_full -report

# Fast smoke regeneration (~5 s) into bench_out/.
figures-quick:
	$(GO) run ./cmd/share-bench -quick -out bench_out -report

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/medical
	$(GO) run ./examples/energy
	$(GO) run ./examples/multiround
	$(GO) run ./examples/classification

clean:
	rm -rf bench_out bench_out_full
