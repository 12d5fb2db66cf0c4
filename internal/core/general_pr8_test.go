package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"share/internal/nash"
	"share/internal/numeric"
	"share/internal/stat"
)

// A context canceled mid-search must surface context.Canceled out of
// SolveGeneralCtx — the regression for the seed-era bug where the golden
// search masked the inner error behind a sentinel value and misreported
// "stage 3 failed at the optimal prices" with a nil error.
func TestSolveGeneralCancellationPropagates(t *testing.T) {
	g := PaperGame(20, stat.NewRand(3))
	ctx, cancel := context.WithCancel(context.Background())
	var evals atomic.Int64
	loss := func(i int, chi, tau float64) float64 {
		// Cancel from deep inside the cascade, well past the first few
		// Stage-3 solves so the abort happens mid-bracket, not at entry.
		if evals.Add(1) == 5000 {
			cancel()
		}
		q := chi * tau
		return g.Sellers.Lambda[i] * q * q
	}
	_, err := g.SolveGeneralCtx(ctx, GeneralOptions{Loss: loss})
	if err == nil {
		t.Fatal("SolveGeneralCtx returned nil error after mid-search cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want errors.Is(err, context.Canceled)", err)
	}
}

// The baseline cascade (no incremental payoffs, no warm starts, no
// tolerance schedule, no memoization, sequential golden search) and the
// optimized one must agree on the equilibrium for every loss shape — the
// optimizations are allowed to change who computes what when, never where
// the prices land.
func TestSolveGeneralFastMatchesBaseline(t *testing.T) {
	g := PaperGame(4, stat.NewRand(11))
	losses := []struct {
		name string
		loss LossFunc
	}{
		{"quadratic", g.QuadraticLoss()},
		{"alternative", g.AlternativeLoss()},
		{"cubic", g.CubicLoss()},
	}
	for _, l := range losses {
		l := l
		t.Run(l.name, func(t *testing.T) {
			const priceTol = 1e-5
			fast, err := g.SolveGeneral(GeneralOptions{Loss: l.loss, PriceTol: priceTol})
			if err != nil {
				t.Fatalf("fast solve: %v", err)
			}
			pm, err := g.Stage1PM()
			if err != nil {
				t.Fatalf("bracketing p^M: %v", err)
			}
			base, err := g.solveGeneralBaseline(context.Background(), GeneralOptions{Loss: l.loss, PriceTol: priceTol}, 4*pm, priceTol)
			if err != nil {
				t.Fatalf("baseline solve: %v", err)
			}
			// Nested golden search carries the inner pd localization error
			// into the outer pm comparisons, so at interactive tolerances
			// the located prices scatter within the flat top of the buyer's
			// profit — a few percent — while the achieved profit pins the
			// optimum orders of magnitude tighter. Assert accordingly: the
			// profit is the precision check, the prices a sanity band.
			fb := g.EvaluateProfile(fast.PM, fast.PD, fast.Tau).BuyerProfit
			bb := g.EvaluateProfile(base.PM, base.PD, base.Tau).BuyerProfit
			if d := math.Abs(fb - bb); d > 1e-4*math.Abs(bb) {
				t.Errorf("buyer profit: fast %.10g vs baseline %.10g (rel Δ %g)", fb, bb, d/math.Abs(bb))
			}
			if d := math.Abs(fast.PM - base.PM); d > 0.05*base.PM {
				t.Errorf("p^M: fast %g vs baseline %g (Δ %g)", fast.PM, base.PM, d)
			}
			if d := math.Abs(fast.PD - base.PD); d > 0.05*base.PD {
				t.Errorf("p^D: fast %g vs baseline %g (Δ %g)", fast.PD, base.PD, d)
			}
			for i := range fast.Tau {
				if d := math.Abs(fast.Tau[i] - base.Tau[i]); d > 0.02 {
					t.Errorf("τ[%d]: fast %g vs baseline %g", i, fast.Tau[i], base.Tau[i])
				}
			}
		})
	}
}

// solveGeneralBaseline is the pre-optimization cascade — per-evaluation
// allocation of the full χ-vector, cold closed-form starts, fixed final
// tolerances, no memo, sequential searches — kept as the equivalence
// oracle for the optimized SolveGeneralCtx. Error propagation matches the
// fast path: the searches thread the real Stage-3 error out instead of
// masking it behind a sentinel.
func (g *Game) solveGeneralBaseline(ctx context.Context, opt GeneralOptions, pmHi, priceTol float64) (*Profile, error) {
	stage3 := func(pd float64) ([]float64, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ng := &nash.Game{
			Players: g.M(),
			Payoff: func(i int, x float64, s []float64) float64 {
				tau := append([]float64(nil), s...)
				tau[i] = x
				return g.GeneralSellerProfit(i, pd, tau, opt.Loss)
			},
		}
		nopt := opt.Nash
		if nopt.Start == nil {
			// The quadratic closed form is a serviceable warm start for any
			// loss with comparable curvature.
			nopt.Start = g.Stage3Tau(pd)
		}
		res, err := ng.SolveCtx(ctx, nopt)
		if err != nil {
			return nil, fmt.Errorf("core: stage 3 numeric Nash at p^D=%g: %w", pd, err)
		}
		return res.Strategies, nil
	}

	stage2 := func(pm float64) (float64, []float64, error) {
		pdHi := g.Stage2PD(pm) * 4
		if pdHi <= 0 {
			pdHi = pm
		}
		pd, err := numeric.GoldenMaxErr(func(pd float64) (float64, error) {
			tau, err := stage3(pd)
			if err != nil {
				return 0, err
			}
			return g.BrokerProfit(pm, pd, tau), nil
		}, 0, pdHi, priceTol)
		if err != nil {
			return 0, nil, err
		}
		tau, err := stage3(pd)
		if err != nil {
			return 0, nil, err
		}
		return pd, tau, nil
	}

	pmStar, err := numeric.GoldenMaxErr(func(pm float64) (float64, error) {
		_, tau, err := stage2(pm)
		if err != nil {
			return 0, err
		}
		return g.BuyerProfit(pm, tau), nil
	}, 0, pmHi, priceTol)
	if err != nil {
		return nil, fmt.Errorf("core: general solve: %w", err)
	}

	pdStar, tauStar, err := stage2(pmStar)
	if err != nil {
		return nil, fmt.Errorf("core: general solve: %w", err)
	}
	p := g.EvaluateProfile(pmStar, pdStar, tauStar)
	for i := range p.SellerProfits {
		p.SellerProfits[i] = g.GeneralSellerProfit(i, pdStar, tauStar, opt.Loss)
	}
	return p, nil
}

// Warm-starting from a neighboring round's profile must not move the
// answer beyond the price-localization scatter, and must not cost extra
// Stage-3 sweeps. The cubic loss is the interesting case: its closed-form
// cold start is only approximate, so the carried profile genuinely
// replaces iteration work (for the quadratic loss Stage3Tau is exact and
// warm starts have nothing to improve).
func TestSolveGeneralWarmStartAgreesWithCold(t *testing.T) {
	g := PaperGame(10, stat.NewRand(5))
	loss := g.CubicLoss()
	var coldStats, warmStats GeneralStats
	cold, err := g.SolveGeneral(GeneralOptions{Loss: loss, PriceTol: 1e-6, Stats: &coldStats})
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	warm, err := g.SolveGeneral(GeneralOptions{
		Loss: loss, PriceTol: 1e-6,
		WarmPD: cold.PD, WarmTau: cold.Tau,
		Stats: &warmStats,
	})
	if err != nil {
		t.Fatalf("warm solve: %v", err)
	}
	if d := math.Abs(warm.PM - cold.PM); d > 0.05*cold.PM {
		t.Errorf("p^M moved by %g under warm start (cold %g)", d, cold.PM)
	}
	if d := math.Abs(warm.PD - cold.PD); d > 0.05*cold.PD {
		t.Errorf("p^D moved by %g under warm start (cold %g)", d, cold.PD)
	}
	if warmStats.Stage3Sweeps > coldStats.Stage3Sweeps {
		t.Errorf("warm start swept %d times vs cold's %d; want no more",
			warmStats.Stage3Sweeps, coldStats.Stage3Sweeps)
	}
}

// The stats sink must report the cascade's effort; a fresh solve performs
// hundreds of Stage-3 solves, each at least one sweep.
func TestSolveGeneralStatsPopulated(t *testing.T) {
	g := PaperGame(5, stat.NewRand(2))
	var stats GeneralStats
	if _, err := g.SolveGeneral(GeneralOptions{Loss: g.QuadraticLoss(), PriceTol: 1e-4, Stats: &stats}); err != nil {
		t.Fatalf("SolveGeneral: %v", err)
	}
	if stats.Stage3Solves <= 0 || stats.Stage3Sweeps < stats.Stage3Solves || stats.Stage3Time <= 0 {
		t.Fatalf("implausible stats: %+v", stats)
	}
}

// BenchmarkRatioGeneralVsBaseline gates the general cascade's speed-up over
// solveGeneralBaseline at the paper's m = 100 (quadratic loss, PriceTol
// 1e-4, default sequential Stage-3 sweeps). The two run alternately in one
// process, so the ratio of their fastest runs does not drift with the
// machine's speed as absolute ns/op do. Its floor is the 143x recorded at
// m = 100 (bench_out/history.json, BENCH_PR8.json) divided by 1.25.
func BenchmarkRatioGeneralVsBaseline(b *testing.B) {
	const (
		priceTol = 1e-4
		pairs    = 3
		fastRuns = 5 // per pair: the cascade is ~150x cheaper than the oracle
		floor    = 114.0
	)
	g := PaperGame(100, stat.NewRand(20240601))
	opt := GeneralOptions{Loss: g.QuadraticLoss(), PriceTol: priceTol}
	pm, err := g.Stage1PM()
	if err != nil {
		b.Fatal(err)
	}
	timed := func(solve func() (*Profile, error)) time.Duration {
		t0 := time.Now()
		if _, err := solve(); err != nil {
			b.Fatal(err)
		}
		return time.Since(t0)
	}
	fast := func() (*Profile, error) { return g.SolveGeneral(opt) }
	slow := func() (*Profile, error) {
		return g.solveGeneralBaseline(context.Background(), opt, 4*pm, priceTol)
	}
	var minFast, minSlow time.Duration
	for i := 0; i < b.N; i++ {
		for k := 0; k < pairs; k++ {
			for r := 0; r < fastRuns; r++ {
				if d := timed(fast); minFast == 0 || d < minFast {
					minFast = d
				}
			}
			if d := timed(slow); minSlow == 0 || d < minSlow {
				minSlow = d
			}
		}
	}
	ratio := float64(minSlow) / float64(minFast)
	b.ReportMetric(0, "ns/op")
	b.ReportMetric(ratio, "speedup")
	if ratio < floor {
		b.Fatalf("general cascade %v vs baseline %v: %.1fx, want >= %.0fx", minFast, minSlow, ratio, floor)
	}
}
