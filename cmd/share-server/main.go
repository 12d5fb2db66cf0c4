// Command share-server runs the Share data market as a JSON-over-HTTP
// service. Sellers register with their privacy sensitivity and data, buyers
// post demands, and each demand executes one round of the Stackelberg-Nash
// trading algorithm (Algorithm 1). See internal/httpapi for the endpoint
// reference.
//
// Usage:
//
//	share-server [-addr :8080] [-seed N] [-demo M] [-snapshot-dir DIR]
//	             [-durability MODE] [-max-body BYTES] [-trade-timeout D]
//	             [-trade-queue N] [-trade-concurrency N] [-drain D]
//	             [-workers N] [-pprof ADDR] [-solver NAME]
//	             [-epsilon-budget ε] [-composition RULE]
//	             [-similarity-discount γ] [-similarity-threshold r]
//
// -epsilon-budget gives every seller in new markets a privacy budget: each
// trade's LDP application charges the seller's per-round ε to a durable
// ledger, composed by -composition (basic sum or the advanced
// strong-composition bound), and a trade that would overrun any
// participant's budget is refused with 409 budget_exhausted until the
// seller is topped up. /v2 market creation overrides both via the spec's
// "epsilon_budget" and "composition" fields. -similarity-discount enables
// similarity-aware pricing: sellers whose data is pairwise redundant above
// -similarity-threshold have their Shapley payouts discounted by up to γ.
//
// -trade-concurrency and -trade-queue set every market's admission
// envelope: at most N trades execute per market while up to Q more wait in
// a bounded queue; trades beyond that answer 429 with a Retry-After hint
// instead of piling onto the write path. /v2 market creation overrides both
// per market via the spec's "trade_concurrency" and "trade_queue" fields.
// During graceful shutdown the pool drains first, so late writes get 503 +
// Retry-After while in-flight rounds finish.
//
// -solver picks the default equilibrium backend (analytic | meanfield |
// general); individual requests override it with a "solver" field on the
// demand body.
//
// -workers fans each trade's Shapley valuation across N workers (0 = one
// worker; results are identical for every value). -pprof serves the Go
// net/http/pprof profiling endpoints on a side listener, kept off the main
// address so profiling can stay firewalled:
//
//	share-server -demo 10 -workers 8 -pprof localhost:6060 &
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
//
// With -demo M the server pre-registers M synthetic sellers so the market is
// immediately tradable:
//
//	share-server -demo 10 &
//	curl -s localhost:8080/v1/quote -d '{"n":200,"v":0.8}'
//	curl -s localhost:8080/v1/trades -d '{"n":200,"v":0.8}'
//	curl -s localhost:8080/v1/metrics
//
// With -snapshot-dir DIR every hosted market persists under DIR: every
// registration, trade, roster change and budget top-up appends to a
// write-ahead log DIR/<id>.wal (group-committed fsyncs) that is
// periodically compacted into DIR/<id>.json, graceful shutdown
// (SIGINT/SIGTERM) checkpoints every market, and the whole pool —
// snapshots plus WAL tails — is replayed on boot; a corrupt file is skipped
// with a warning. -durability picks the default commit mode for new markets
// (sync | group | async; see internal/pool); individual markets override it
// with a "durability" field on the /v2/markets create body.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	_ "net/http/pprof" // registers /debug/pprof/ on the default mux for -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"share/internal/budget"
	"share/internal/httpapi"
	"share/internal/market"
	"share/internal/pool"
	"share/internal/solve"
	"share/internal/stat"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("share-server: ")

	var (
		addr         = flag.String("addr", ":8080", "listen address")
		seed         = flag.Int64("seed", 1, "random seed")
		demo         = flag.Int("demo", 0, "pre-register this many synthetic sellers")
		snapshotDir  = flag.String("snapshot-dir", "", "per-market persistence directory: restore snapshots and replay WAL tails from DIR on boot, group-commit every mutation to DIR/<id>.wal")
		maxBody      = flag.Int64("max-body", 0, "request body cap in bytes (0 = 8 MiB default)")
		tradeTimeout = flag.Duration("trade-timeout", 0, "server-side deadline per trading round (0 = none)")
		drain        = flag.Duration("drain", 2*time.Minute, "graceful-shutdown drain window for in-flight requests")
		workers      = flag.Int("workers", 0, "Shapley valuation worker pool per trade (0 or 1 = one worker; results are identical for every value)")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this side address (e.g. localhost:6060; empty = disabled)")
		tradeQueue   = flag.Int("trade-queue", 0, "per-market trade waiting room: trades beyond -trade-concurrency park here, the rest get 429 + Retry-After (0 = default 64, negative = no waiting room)")
		tradeConc    = flag.Int("trade-concurrency", 0, "max trades executing per market at once (0 = default 1); /v2 market creation overrides via the spec's \"trade_concurrency\" field")
		solver       = flag.String("solver", "", "default equilibrium backend: analytic | meanfield | general (empty = analytic); requests override per-trade via the demand's \"solver\" field")
		durability   = flag.String("durability", "", "default market commit mode with -snapshot-dir: sync | group | async (empty = group); /v2 market creation overrides per-market via the spec's \"durability\" field")
		epsBudget    = flag.Float64("epsilon-budget", 0, "default per-seller privacy budget ε for new markets (0 = budgeting disabled); /v2 market creation overrides via the spec's \"epsilon_budget\" field")
		composition  = flag.String("composition", "", "default ε-composition rule for budgeted markets: basic | advanced (empty = basic); /v2 market creation overrides via the spec's \"composition\" field")
		simDiscount  = flag.Float64("similarity-discount", 0, "similarity-aware pricing: max fraction shaved off a fully redundant seller's payout, in (0,1] (0 = disabled)")
		simThreshold = flag.Float64("similarity-threshold", 0.9, "pairwise redundancy at or below which no discount applies, in [0,1); only meaningful with -similarity-discount")
	)
	flag.Parse()

	if _, err := solve.Lookup(*solver); err != nil {
		log.Fatalf("-solver: %v", err)
	}
	if _, err := pool.ParseDurability(*durability); err != nil {
		log.Fatalf("-durability: %v", err)
	}
	if !(*epsBudget >= 0) || math.IsInf(*epsBudget, 0) {
		log.Fatalf("-epsilon-budget: %g is not a finite non-negative ε", *epsBudget)
	}
	if _, err := budget.ParseComposition(*composition); err != nil {
		log.Fatalf("-composition: %v", err)
	}
	if *simDiscount != 0 {
		dc := market.DiscountConfig{Factor: *simDiscount, Threshold: *simThreshold}
		if err := dc.Validate(); err != nil {
			log.Fatalf("-similarity-discount: %v", err)
		}
	}

	if *pprofAddr != "" {
		// The pprof handlers register themselves on http.DefaultServeMux at
		// import; the side listener keeps them off the public API address.
		go func() {
			log.Printf("pprof listening on %s (/debug/pprof/)", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}

	srv := httpapi.NewServer(httpapi.Options{
		Seed:              *seed,
		Logf:              log.Printf,
		MaxBodyBytes:      *maxBody,
		TradeTimeout:      *tradeTimeout,
		Workers:           *workers,
		Solver:            *solver,
		SnapshotDir:       *snapshotDir,
		Durability:        *durability,
		TradeConcurrency:  *tradeConc,
		TradeQueue:        *tradeQueue,
		EpsilonBudget:     *epsBudget,
		Composition:       *composition,
		DiscountFactor:    *simDiscount,
		DiscountThreshold: *simThreshold,
	})
	handler := srv.Handler()

	restored := false
	if *snapshotDir != "" {
		ids, err := srv.Pool().RestoreAll()
		if err != nil {
			log.Fatalf("restoring snapshot directory: %v", err)
		}
		if len(ids) > 0 {
			log.Printf("restored %d market(s) from %s: %v", len(ids), *snapshotDir, ids)
		} else {
			log.Printf("no snapshots under %s yet; starting empty", *snapshotDir)
		}
		for _, id := range ids {
			if id == srv.DefaultMarket() {
				restored = true // don't overlay demo sellers on a restored default market
			}
		}
	}

	if *demo > 0 && !restored {
		if err := registerDemoSellers(handler, *demo, *seed); err != nil {
			log.Fatalf("demo setup: %v", err)
		}
		log.Printf("pre-registered %d synthetic sellers", *demo)
	}

	httpServer := &http.Server{
		Addr:         *addr,
		Handler:      handler,
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 5 * time.Minute, // Shapley rounds can take a while
	}

	// Signal-driven lifecycle: serve until SIGINT/SIGTERM, then drain
	// in-flight requests and checkpoint every market before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", *addr)
		errc <- httpServer.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
		stop()
		// Refuse new writes right away: parked and late trades answer 503 +
		// Retry-After instead of hanging into a dying process, while rounds
		// already executing finish and quotes keep serving through the drain.
		srv.Pool().Drain()
		log.Printf("shutdown signal received; draining (up to %s)", *drain)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpServer.Shutdown(drainCtx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if *snapshotDir != "" {
		if err := srv.Pool().SaveAll(); err != nil {
			log.Fatalf("saving snapshot directory: %v", err)
		}
		log.Printf("all markets saved under %s", *snapshotDir)
	}
	// Terminal close: waits out any straggling rounds and flushes async WAL
	// tails so an orderly exit never loses acknowledged trades.
	srv.Pool().Close()
	log.Printf("bye")
}

// registerDemoSellers seeds the market through its own HTTP surface so the
// demo path exercises exactly what external clients would.
func registerDemoSellers(handler http.Handler, n int, seed int64) error {
	rng := stat.NewRand(seed)
	for i := 0; i < n; i++ {
		reg := httpapi.SellerRegistration{
			ID:            fmt.Sprintf("demo-seller-%02d", i+1),
			Lambda:        stat.UniformOpen(rng, 0, 1),
			SyntheticRows: 200,
		}
		body, err := json.Marshal(reg)
		if err != nil {
			return err
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/sellers", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusCreated {
			return fmt.Errorf("registering %s: %d %s", reg.ID, rec.Code, rec.Body.String())
		}
	}
	return nil
}
