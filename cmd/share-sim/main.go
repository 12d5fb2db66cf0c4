// Command share-sim runs multi-round market simulations: a stream of buyers
// with randomized demands trades against one persistent market, weights
// evolving via Shapley updates round over round. It prints a per-round table
// and closing summaries, and can persist the market snapshot for later
// sessions.
//
// Usage:
//
//	share-sim [flags]
//
//	-m int          sellers (default 20)
//	-rounds int     buyer arrivals to simulate (default 10)
//	-n-lo/-n-hi     demand-quantity bounds (default 200..800)
//	-v-lo/-v-hi     demanded-performance bounds (default 0.5..0.9)
//	-theta-lo/-hi   θ₁ bounds (default 0.3..0.7)
//	-product        ols | ridge | logistic | mean | histogram (default ols)
//	-solver NAME    equilibrium backend: analytic | meanfield | general
//	-snapshot PATH  save the market snapshot JSON on exit
//	-seed int       random seed
//	-workers int    fan the Shapley weight update across n workers (>1).
//	                Purely a latency knob for every product: each
//	                permutation is seeded independently, so output is
//	                identical for every worker count (including the
//	                default of one)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"share/internal/dataset"
	"share/internal/market"
	"share/internal/product"
	"share/internal/sim"
	"share/internal/solve"
	"share/internal/stat"
	"share/internal/translog"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("share-sim: ")

	var (
		m        = flag.Int("m", 20, "number of sellers")
		rounds   = flag.Int("rounds", 10, "buyer arrivals to simulate")
		nLo      = flag.Float64("n-lo", 200, "minimum demanded data quantity")
		nHi      = flag.Float64("n-hi", 800, "maximum demanded data quantity")
		vLo      = flag.Float64("v-lo", 0.5, "minimum demanded performance")
		vHi      = flag.Float64("v-hi", 0.9, "maximum demanded performance")
		thLo     = flag.Float64("theta-lo", 0.3, "minimum θ₁")
		thHi     = flag.Float64("theta-hi", 0.7, "maximum θ₁")
		prod     = flag.String("product", "ols", "product form: ols | ridge | logistic | mean | histogram")
		snapshot = flag.String("snapshot", "", "save the market snapshot JSON here on exit")
		seed     = flag.Int64("seed", 1, "random seed")
		workers  = flag.Int("workers", 0, "Shapley weight-update workers (>1 fans out; output independent of count for every product)")
		solver   = flag.String("solver", "", "equilibrium backend: analytic | meanfield | general (empty = analytic)")
	)
	flag.Parse()

	if err := run(*m, *rounds, *nLo, *nHi, *vLo, *vHi, *thLo, *thHi, *prod, *snapshot, *solver, *seed, *workers); err != nil {
		log.Fatal(err)
	}
}

func run(m, rounds int, nLo, nHi, vLo, vHi, thLo, thHi float64, prod, snapshot, solver string, seed int64, workers int) error {
	backend, err := solve.Lookup(solver)
	if err != nil {
		return fmt.Errorf("-solver: %w", err)
	}
	rng := stat.NewRand(seed)

	// Assemble the market over synthetic CCPP data.
	full := dataset.SyntheticCCPP(m*80+500, rng)
	train, test := full.Split(m * 80)
	chunks, err := dataset.PartitionEqual(train, m)
	if err != nil {
		return err
	}
	sellers := make([]*market.Seller, m)
	for i := range sellers {
		sellers[i] = &market.Seller{
			ID:     fmt.Sprintf("S%03d", i+1),
			Lambda: stat.UniformOpen(rng, 0, 1),
			Data:   chunks[i],
		}
	}
	builder, err := product.ByName(prod, train)
	if err != nil {
		return err
	}
	mkt, err := market.New(sellers, market.Config{
		Cost:    translog.PaperDefaults(),
		Product: builder,
		TestSet: test,
		Update:  &market.WeightUpdate{Retain: 0.2, Permutations: 15, TruncateTol: 0.005, Workers: workers},
		Solver:  backend,
		Seed:    seed,
	})
	if err != nil {
		return err
	}

	dist := sim.BuyerDistribution{
		NLo: nLo, NHi: nHi,
		VLo: vLo, VHi: vHi,
		Theta1Lo: thLo, Theta1Hi: thHi,
	}
	res, err := sim.Run(mkt, dist, rounds, rng)
	if err != nil {
		return err
	}

	fmt.Printf("%-6s %-6s %-5s %-9s %-9s %-9s %-9s %-7s %-8s\n",
		"round", "N", "v", "pM*", "pD*", "payment", "Ω", "perf", "entropy")
	for _, rs := range res.Rounds {
		fmt.Printf("%-6d %-6.0f %-5.2f %-9.5f %-9.5f %-9.5f %-9.5f %-7.3f %-8.3f\n",
			rs.Round, rs.Buyer.N, rs.Buyer.V, rs.ProductPrice, rs.DataPrice,
			rs.Payment, rs.BrokerProfit, rs.Performance, rs.WeightEntropy)
	}

	fmt.Println()
	pm := res.Summarize(func(r sim.RoundStats) float64 { return r.ProductPrice })
	entropy := res.Summarize(func(r sim.RoundStats) float64 { return r.WeightEntropy })
	fmt.Printf("totals: payments %.5f, broker profit %.5f, seller revenue %.5f\n",
		res.TotalPayments, res.TotalBrokerProfit, res.TotalSellerRevenue)
	fmt.Printf("p^M*: mean %.5f in [%.5f, %.5f]\n", pm.Mean, pm.Min, pm.Max)
	fmt.Printf("weight entropy: %.3f → %.3f (falling = broker concentrating on good sellers)\n",
		entropy.Max, entropy.Last)

	// Refit the broker's cost model from the accumulated ledger.
	if obs := mkt.CostObservations(); len(obs) >= 8 {
		if fit, err := translog.Fit(obs); err == nil {
			fmt.Printf("refit translog σ₁=%.3f σ₂=%.3f (truth −2, −3), log-RMSE %.2e\n",
				fit.Sigma1, fit.Sigma2, translog.FitError(fit, obs))
		}
	}

	if snapshot != "" {
		f, err := os.Create(snapshot)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := mkt.Save(f); err != nil {
			return err
		}
		fmt.Printf("snapshot saved to %s\n", snapshot)
	}
	return nil
}
