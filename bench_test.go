// Benchmarks regenerating the paper's evaluation, one per figure (§6), plus
// ablation benches for the design choices DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// The Fig. 3 benches use a scaled-down corpus so the default bench run
// finishes quickly; cmd/share-bench runs the full 1,000,000-row sweep.
package share_test

import (
	"context"
	"testing"

	"share/internal/core"
	"share/internal/dataset"
	"share/internal/experiments"
	"share/internal/ldp"
	"share/internal/nash"
	"share/internal/regress"
	"share/internal/stat"
	"share/internal/valuation"
)

func benchGame(b *testing.B, m int) *core.Game {
	b.Helper()
	g := core.PaperGame(m, stat.NewRand(experiments.DefaultSeed))
	if err := g.Validate(); err != nil {
		b.Fatal(err)
	}
	return g
}

// --- Core solver ---

func BenchmarkSolveM100(b *testing.B) {
	g := benchGame(b, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveM1000(b *testing.B) {
	g := benchGame(b, 1000)
	for i := 0; i < b.N; i++ {
		if _, err := g.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveM10000(b *testing.B) {
	g := benchGame(b, 10000)
	for i := 0; i < b.N; i++ {
		if _, err := g.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveCachedM10000 is the Precompute + SolveValidated fast path:
// for a fixed seller population the per-solve cost drops from O(m)
// (validation plus aggregate passes) to O(m) with no sqrt/division work —
// in practice several times faster at m=10000. Results are bit-identical
// to Solve (see core.TestSolveCachedBitIdentical).
func BenchmarkSolveCachedM10000(b *testing.B) {
	g := benchGame(b, 10000)
	if err := g.Precompute(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.SolveValidated(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 2: effectiveness sweeps ---

func BenchmarkFig2a(b *testing.B) {
	g := benchGame(b, 100)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2a(g, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2b(b *testing.B) {
	g := benchGame(b, 100)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2b(g, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2c(b *testing.B) {
	g := benchGame(b, 100)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2c(g, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Sweep compares a full Fig. 2(a) deviation sweep on one worker
// against the package default (GOMAXPROCS workers). Output is byte-identical
// either way (TestParallelSweepsMatchSequential); only wall-clock differs.
func BenchmarkFig2Sweep(b *testing.B) {
	defer experiments.SetWorkers(0)
	for name, workers := range map[string]int{"sequential": 1, "parallel": 0} {
		b.Run(name, func(b *testing.B) {
			g := benchGame(b, 2000)
			experiments.SetWorkers(workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Fig2a(g, 0, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 3: efficiency (scaled-down corpus; full sweep in share-bench) ---

func BenchmarkFig3TradingRound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _, err := experiments.Fig3(experiments.Fig3Options{
			Sizes:               []int{50},
			CorpusRows:          20_000,
			PiecesPerSeller:     50,
			ShapleyPermutations: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figs. 4–8: sensitivity sweeps ---

func benchSweep(b *testing.B, fn func(*core.Game) (*experiments.Series, *experiments.Series, error)) {
	b.Helper()
	g := benchGame(b, 100)
	for i := 0; i < b.N; i++ {
		if _, _, err := fn(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4(b *testing.B) { benchSweep(b, experiments.Fig4) }
func BenchmarkFig5(b *testing.B) { benchSweep(b, experiments.Fig5) }
func BenchmarkFig6(b *testing.B) { benchSweep(b, experiments.Fig6) }
func BenchmarkFig7(b *testing.B) { benchSweep(b, experiments.Fig7) }
func BenchmarkFig8(b *testing.B) { benchSweep(b, experiments.Fig8) }

// --- Theorem 5.1: mean-field analysis ---

func BenchmarkMeanFieldError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MeanFieldError(0, []int{10, 100, 1000}, experiments.DefaultSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation 2 (DESIGN.md §6): direct derivation vs mean-field shortcut at a
// large seller count — the runtime gap the approximation buys.
func BenchmarkStage3DirectDerivationMF(b *testing.B) {
	g := benchGame(b, 2000)
	p, err := g.Solve()
	if err != nil {
		b.Fatal(err)
	}
	if err := g.ScaleWeightsForBound(p.PD); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.DirectTauMF(p.PD, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStage3MeanField(b *testing.B) {
	g := benchGame(b, 2000)
	p, err := g.Solve()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.MeanFieldTau(p.PD)
	}
}

// Ablation 1: Eq. 20 closed form vs the generic numerical Nash solver.
func BenchmarkStage3Analytic(b *testing.B) {
	g := benchGame(b, 50)
	for i := 0; i < b.N; i++ {
		g.Stage3Tau(0.02)
	}
}

func BenchmarkStage3NumericNash(b *testing.B) {
	g := benchGame(b, 50)
	pd := 0.02
	start := g.Stage3Tau(pd)
	ng := &nash.Game{
		Players: g.M(),
		Payoff: func(i int, x float64, s []float64) float64 {
			tau := append([]float64(nil), s...)
			tau[i] = x
			return g.SellerProfit(i, pd, tau)
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ng.Solve(nash.Options{Start: start}); err != nil {
			b.Fatal(err)
		}
	}
}

// Jacobi vs Gauss-Seidel best-response schedules on the Stage-3 seller game:
// Jacobi evaluates all m golden-section best responses against the previous
// profile concurrently (and so scales with cores); Gauss-Seidel updates in
// place. Both converge to the same equilibrium (nash tests).
func benchNashSweep(b *testing.B, m int, opt nash.Options) {
	b.Helper()
	g := benchGame(b, m)
	pd := 0.02
	start := g.Stage3Tau(pd)
	ng := &nash.Game{
		Players: g.M(),
		Payoff: func(i int, x float64, s []float64) float64 {
			tau := append([]float64(nil), s...)
			tau[i] = x
			return g.SellerProfit(i, pd, tau)
		},
	}
	opt.Start = start
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ng.Solve(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNashGaussSeidelM50(b *testing.B) {
	benchNashSweep(b, 50, nash.Options{})
}

func BenchmarkNashJacobiM50(b *testing.B) {
	benchNashSweep(b, 50, nash.Options{Sweep: nash.Jacobi})
}

func BenchmarkNashJacobiM200(b *testing.B) {
	benchNashSweep(b, 200, nash.Options{Sweep: nash.Jacobi})
}

// Ablation 3: Share's Nash selection vs broker-driven baselines.
func BenchmarkAblationMechanisms(b *testing.B) {
	g := benchGame(b, 100)
	rng := stat.NewRand(experiments.DefaultSeed)
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Ablation(g, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate benches ---

func BenchmarkLDPLaplacePerturb(b *testing.B) {
	lo, hi := dataset.CCPPBounds()
	bounds, err := ldp.NewBounds(lo, hi)
	if err != nil {
		b.Fatal(err)
	}
	mech := ldp.NewLaplace(bounds)
	rng := stat.NewRand(2)
	row := []float64{20, 50, 1010, 70}
	rec := make([]float64, len(row))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(rec, row)
		mech.Perturb(rng, rec, 1.0)
	}
}

func BenchmarkBrokerLeadingSolve(b *testing.B) {
	g := benchGame(b, 100)
	for i := 0; i < b.N; i++ {
		if _, err := g.SolveBrokerLeading(0); err != nil {
			b.Fatal(err)
		}
	}
}

// Parallel vs sequential Shapley valuation (the production weight-update
// path at scale).
func BenchmarkSellerShapleySequential(b *testing.B) {
	chunks, eval := shapleyBenchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := valuation.SellerShapleyKernelCtx(context.Background(), chunks, eval, 20, 0, 5, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSellerShapleyParallel(b *testing.B) {
	chunks, eval := shapleyBenchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := valuation.SellerShapleyKernelCtx(context.Background(), chunks, eval, 20, 0, 5, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func shapleyBenchData(b *testing.B) ([]*dataset.Dataset, *regress.EvalMoments) {
	b.Helper()
	rng := stat.NewRand(6)
	full := dataset.SyntheticCCPP(4200, rng)
	train, test := full.Split(4000)
	chunks, err := dataset.PartitionEqual(train.Clone(), 40)
	if err != nil {
		b.Fatal(err)
	}
	eval, err := regress.NewEvalMoments(test)
	if err != nil {
		b.Fatal(err)
	}
	return chunks, eval
}
