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
# LDP mechanisms to the copying loop they replaced, and every row-major
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
# leaves and a WAL-only reboot, and a market's spec surviving a reboot,
# under the race detector (allocation bounds are checked only without it);
# the httpapi pass pins cross-market overload isolation end to end and
# that a quote's reused scratch never leaks into the next response; the
# wal pass pins concurrent group commit, the torn-tail sweep, every frame
# the in-place encoder writes to the marshal-twice framing it replaced,
# and that a corrupt length makes replay allocate no more than the file,
# then fuzzes Open over arbitrary bytes after intact frames for 10 s,
# requiring every segment Open refuses to be reported as wal.ErrCorrupt;
# the pool fuzz pass restores arbitrary bytes as a market's snapshot file
# for 10 s, requiring every market that restores to answer a quote and a
# trade within a watchdog's bound; and the serve-smoke end-to-end pass
# rides along so the gate also
# exercises the live server lifecycle (boot, /v2 markets, trade, metrics,
# saturation via share-loadgen, SIGTERM drain, -snapshot-dir restore,
# kill -9 WAL replay).
race: vet
	$(GO) test -race ./...
	$(GO) test -race -run 'TestKernelEquivalence|TestPerWorkerStreamsMatchPerPermutationRngs|TestRunRoundShapleyIdenticalAcrossWorkers|TestRoundOutputsMatchParent|TestFreeListConcurrentOwnership|TestPerturbInPlace|TestLayoutMatchesRowSlices' -count=1 ./internal/valuation ./internal/market ./internal/parallel ./internal/ldp ./internal/dataset
	$(GO) test -race -run 'TestGeneralMatchesAnalytic|TestGeneralDeterministicAcrossWorkers|TestMapDeterministicAcrossWorkers|TestMeanFieldWithinTheoremBounds|TestSolveGeneralTau|TestSolveForMatchesCloneSolve|TestBindMatchesPrecompute' -count=1 ./internal/solve ./internal/core
	$(GO) test -race -run 'TestMarketsAreIsolated|TestDeleteDrainsInFlightRounds|TestBatchQuoteDeterminism|TestWALTortureRecovery|TestWALTortureBudgetRecovery|TestParentEraBudgetLogRestores|TestConcurrentTradesGroupCommit|TestAdmissionRejectsWhenQueueFull|TestAdmissionQueueWaitsForSlot|TestAdmissionQueuedTradeHonorsContext|TestCloseSealsPoolAgainstStragglers|TestAsyncCloseFlushesTail|TestChurnQuoteIsolation|TestChurnSurvivesCheckpoint|TestExhaustedTradesLeaveQuotesUndisturbed|TestPublishedViewStaysImmutable|TestSellerBytesOnDiskMatchParent|TestConcurrentQuotesDuringChurn|TestTradeBytesPerRound|TestViewsBindTheCommittedGame|TestLeaveQuotesSurviveReboot|TestSpecSurvivesReboot' -count=1 ./internal/pool
	$(GO) test -race -run 'TestOverloadIsolationAcrossMarkets|TestDrainAnswers503|TestQuoteScratchDoesNotLeak' -count=1 ./internal/httpapi
	$(GO) test -race -run 'TestConcurrentGroupCommit|TestTornTailTruncatedAtEveryOffset|TestAppendFramesMatchMarshal|TestCorruptLengthAllocatesOnlyTheFile' -count=1 ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzOpen -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzRestoreSnapshot -fuzztime 10s ./internal/pool
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

# Go benchmarks (figures, ablations, valuation kernel, trade rounds,
# solvers) plus the machine-readable reports, all under bench_out/:
# BENCH_PR3.json (the moment-cached Shapley kernel in isolation and through
# a full trade round; the seed-era estimator's rows in the committed file
# are no longer re-measured — `go test -bench BenchmarkSellerShapley
# ./internal/valuation` still times it against the kernel), BENCH_PR4.json
# (per-round solve latency of the analytic, mean-field and general
# backends), BENCH_PR6.json (trade throughput and commit latency of the
# sync / group-commit / async WAL) and BENCH_PR8.json (the general
# backend's cold and warm-chained cascade across loss functions, against
# the committed BENCH_PR4.json numbers).
bench:
	$(GO) test -bench=. -benchmem ./...
	$(GO) run ./cmd/share-bench -fig none -out bench_out -bench-pr3 -bench-pr4 -bench-pr6 -bench-pr8

# Re-run the general-backend probes and fail on a >25% regression against
# the committed bench_out/BENCH_PR8.json trajectory.
bench-compare:
	sh scripts/bench_compare.sh

# Regenerate every evaluation figure (full scale, ~30 s) into bench_out_full/,
# plus BENCH.json with the solver/sweep performance probes.
figures:
	$(GO) run ./cmd/share-bench -out bench_out_full -report -bench

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
