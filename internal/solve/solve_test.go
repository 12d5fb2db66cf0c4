package solve

import (
	"context"
	"math"
	"runtime"
	"strings"
	"testing"

	"share/internal/core"
	"share/internal/stat"
)

// solveWith runs one full Precompute → Clone → SetBuyer → Solve pass — the
// per-request path every consumer follows.
func solveWith(t *testing.T, b Backend, g *core.Game) *core.Profile {
	t.Helper()
	proto, err := b.Precompute(g)
	if err != nil {
		t.Fatalf("%s.Precompute: %v", b.Name(), err)
	}
	prep := proto.Clone()
	prep.SetBuyer(g.Buyer)
	p, err := prep.Solve(context.Background())
	if err != nil {
		t.Fatalf("%s.Solve: %v", b.Name(), err)
	}
	return p
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 3 {
		t.Fatalf("Names() = %v, want the three built-in backends", names)
	}
	for i, want := range []string{"analytic", "general", "meanfield"} {
		if names[i] != want {
			t.Errorf("Names()[%d] = %q, want %q (sorted)", i, names[i], want)
		}
	}
	def, err := Lookup("")
	if err != nil || def.Name() != DefaultName {
		t.Errorf("Lookup(\"\") = %v, %v; want the %s default", def, err, DefaultName)
	}
	for _, name := range names {
		b, err := Lookup(name)
		if err != nil || b.Name() != name {
			t.Errorf("Lookup(%q) = %v, %v", name, b, err)
		}
	}
	if _, err := Lookup("simplex"); err == nil {
		t.Error("Lookup accepted an unknown backend")
	} else if !strings.Contains(err.Error(), "analytic") {
		t.Errorf("unknown-backend error %q does not list the registered names", err)
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate name", func() { Register(Analytic{}) })
	mustPanic("empty name", func() { Register(General{PriceTol: 1}) }) // distinct value, same name → still dup
}

// TestAnalyticMatchesCore pins the refactor's central no-regression claim:
// the analytic backend is bit-identical to the direct Precompute + Solve
// path every pre-PR consumer called.
func TestAnalyticMatchesCore(t *testing.T) {
	for _, m := range []int{2, 17, 400} {
		g := core.PaperGame(m, stat.NewRand(int64(m)))
		direct := g.Clone()
		if err := direct.Precompute(); err != nil {
			t.Fatalf("Precompute m=%d: %v", m, err)
		}
		want, err := direct.Solve()
		if err != nil {
			t.Fatalf("Solve m=%d: %v", m, err)
		}
		got := solveWith(t, Analytic{}, g)
		if got.PM != want.PM || got.PD != want.PD {
			t.Errorf("m=%d prices: backend (%v, %v) vs core (%v, %v)", m, got.PM, got.PD, want.PM, want.PD)
		}
		for i := range want.Tau {
			if got.Tau[i] != want.Tau[i] || got.SellerProfits[i] != want.SellerProfits[i] {
				t.Fatalf("m=%d seller %d: backend (τ=%v, π=%v) vs core (τ=%v, π=%v)",
					m, i, got.Tau[i], got.SellerProfits[i], want.Tau[i], want.SellerProfits[i])
			}
		}
		if got.Approx != nil {
			t.Errorf("m=%d: exact backend attached an approximation bound", m)
		}
	}
}

// TestCloneIndependence: mutating one clone must not leak into its siblings
// or the prototype — the property every parallel sweep and every concurrent
// HTTP request depends on.
func TestCloneIndependence(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			b, _ := Lookup(name)
			g := core.PaperGame(6, stat.NewRand(7))
			proto, err := b.Precompute(g)
			if err != nil {
				t.Fatalf("Precompute: %v", err)
			}
			base := solveWith(t, b, g)
			dirty := proto.Clone()
			dirty.Game().SetLambda(0, 0.99)
			dirty.SetBuyer(core.Buyer{N: 5, V: 0.1, Theta1: 0.5, Theta2: 0.5, Rho1: 1, Rho2: 1})

			clean := proto.Clone()
			clean.SetBuyer(g.Buyer)
			p, err := clean.Solve(context.Background())
			if err != nil {
				t.Fatalf("clean Solve: %v", err)
			}
			if p.PM != base.PM || p.PD != base.PD || p.Tau[0] != base.Tau[0] {
				t.Errorf("mutating a sibling clone changed the prototype's solution")
			}
		})
	}
}

// TestGeneralMatchesAnalytic is the cross-backend acceptance criterion on
// the paper's quadratic loss. Agreement is asserted on the quantities that
// are numerically well conditioned:
//
//   - Stage-3 strategies at matched prices agree to ≤ 1e-6 (they land at
//     ~1e-9 — the same machinery the analytic-vs-numeric figure certifies);
//   - the buyer's equilibrium profit agrees to ≤ 1e-6 (relative) — it is
//     envelope-flat in her own p^M, so price localization error vanishes to
//     second order;
//   - broker and seller profits agree to ≤ 1e-3: they feel the other
//     players' price error at first order (e.g. dΨᵢ/dp^D = χτ > 0), so
//     their accuracy is capped by the prices';
//   - the prices themselves agree to ≤ 1e-3.
//
// The looser price tolerance is conditioning, not sloppiness: the buyer's
// Stage-1 objective is so flat near its optimum that a 1e-6 shift in p^M
// changes profit by ~1e-12 — beneath the noise floor of any nested numerical
// evaluation — so no derivative-free search can pin the argmax tighter, even
// though the equilibrium it denotes matches to 1e-6 in every observable.
func TestGeneralMatchesAnalytic(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		g := core.PaperGame(5, stat.NewRand(seed))
		want := solveWith(t, Analytic{}, g)
		got := solveWith(t, General{PriceTol: 1e-9}, g)
		if d := math.Abs(got.PM - want.PM); d > 1e-3*(1+want.PM) {
			t.Errorf("seed %d p^M: |%v − %v| = %v > 1e-3", seed, got.PM, want.PM, d)
		}
		if d := math.Abs(got.PD - want.PD); d > 1e-3*(1+want.PD) {
			t.Errorf("seed %d p^D: |%v − %v| = %v > 1e-3", seed, got.PD, want.PD, d)
		}
		// Strategies at matched prices: the numerical Stage-3 equilibrium at
		// the general backend's own p^D against the closed form there.
		analyticAt := g.Stage3Tau(got.PD)
		for i := range got.Tau {
			if d := math.Abs(got.Tau[i] - analyticAt[i]); d > 1e-6 {
				t.Errorf("seed %d τ[%d] at p^D=%v: |%v − %v| = %v > 1e-6", seed, i, got.PD, got.Tau[i], analyticAt[i], d)
			}
		}
		rel := func(a, b float64) float64 { return math.Abs(a-b) / (1 + math.Abs(b)) }
		if d := rel(got.BuyerProfit, want.BuyerProfit); d > 1e-6 {
			t.Errorf("seed %d buyer profit: %v vs %v (rel %v)", seed, got.BuyerProfit, want.BuyerProfit, d)
		}
		if d := rel(got.BrokerProfit, want.BrokerProfit); d > 1e-3 {
			t.Errorf("seed %d broker profit: %v vs %v (rel %v)", seed, got.BrokerProfit, want.BrokerProfit, d)
		}
		for i := range want.SellerProfits {
			if d := rel(got.SellerProfits[i], want.SellerProfits[i]); d > 1e-3 {
				t.Errorf("seed %d seller %d profit: %v vs %v (rel %v)", seed, i, got.SellerProfits[i], want.SellerProfits[i], d)
			}
		}
	}
}

// TestGeneralDeterministicAcrossWorkers: the Jacobi fan-out is a latency
// knob only — every worker count lands on bit-identical strategies.
func TestGeneralDeterministicAcrossWorkers(t *testing.T) {
	g := core.PaperGame(8, stat.NewRand(5))
	ref := solveWith(t, General{Workers: 1, PriceTol: 1e-6}, g)
	for _, w := range []int{2, runtime.GOMAXPROCS(0), 13} {
		p := solveWith(t, General{Workers: w, PriceTol: 1e-6}, g)
		if p.PM != ref.PM || p.PD != ref.PD {
			t.Fatalf("workers=%d prices (%v, %v) differ from sequential (%v, %v)", w, p.PM, p.PD, ref.PM, ref.PD)
		}
		for i := range ref.Tau {
			if p.Tau[i] != ref.Tau[i] {
				t.Fatalf("workers=%d τ[%d] = %v differs from sequential %v", w, i, p.Tau[i], ref.Tau[i])
			}
		}
	}
}

// TestMeanFieldWithinTheoremBounds exercises the approximation backend on a
// randomized grid: Stages 1–2 must match the analytic backend exactly (they
// share the closed forms), and once the broker's weights are scaled into the
// Theorem 5.1 regime, the mean-field aggregate τ̄ must sit within the
// theorem's interval of the exact alternative-loss equilibrium.
func TestMeanFieldWithinTheoremBounds(t *testing.T) {
	for _, m := range []int{20, 100} {
		for seed := int64(1); seed <= 3; seed++ {
			g := core.PaperGame(m, stat.NewRand(seed*100+int64(m)))
			exact := solveWith(t, Analytic{}, g)
			if err := g.ScaleWeightsForBound(exact.PD); err != nil {
				t.Fatalf("m=%d seed=%d ScaleWeightsForBound: %v", m, seed, err)
			}
			p := solveWith(t, MeanField{}, g)
			if p.PM != exact.PM || p.PD != exact.PD {
				t.Errorf("m=%d seed=%d: mean-field prices (%v, %v) differ from analytic (%v, %v) — Stages 1–2 share the closed forms",
					m, seed, p.PM, p.PD, exact.PM, exact.PD)
			}
			if p.Approx == nil {
				t.Fatalf("m=%d seed=%d: mean-field profile carries no Theorem 5.1 bound", m, seed)
			}
			lo, hi := core.Theorem51Bounds(m)
			if p.Approx.Lo != lo || p.Approx.Hi != hi {
				t.Errorf("m=%d seed=%d: attached bound (%v, %v), want (%v, %v)", m, seed, p.Approx.Lo, p.Approx.Hi, lo, hi)
			}
			if !p.Approx.ConditionHolds {
				t.Errorf("m=%d seed=%d: ω-scaling precondition reported false after ScaleWeightsForBound", m, seed)
			}
			dd, err := g.DirectTauMF(p.PD, 0, 0)
			if err != nil {
				t.Fatalf("m=%d seed=%d DirectTauMF: %v", m, seed, err)
			}
			ddBar, mfBar := g.MeanFieldState(dd), g.MeanFieldState(g.MeanFieldTau(p.PD))
			errMF := ddBar - mfBar
			if errMF <= lo || errMF >= hi {
				t.Errorf("m=%d seed=%d: τ̄ error %v (DD %v, MF %v) outside Theorem 5.1 interval (%v, %v)",
					m, seed, errMF, ddBar, mfBar, lo, hi)
			}
		}
	}
}

// TestMapDeterministicAcrossWorkers: the sweep workhorse assembles results
// in index order no matter the fan-out, per the repo convention.
func TestMapDeterministicAcrossWorkers(t *testing.T) {
	g := core.PaperGame(10, stat.NewRand(9))
	proto, err := Analytic{}.Precompute(g)
	if err != nil {
		t.Fatalf("Precompute: %v", err)
	}
	run := func(workers int) []float64 {
		out, err := Map(workers, 16, proto, func(i int, p Prepared) (float64, error) {
			p.Game().SetLambda(0, 0.05+0.05*float64(i))
			prof, err := p.Solve(context.Background())
			if err != nil {
				return 0, err
			}
			return prof.Tau[0], nil
		})
		if err != nil {
			t.Fatalf("Map(workers=%d): %v", workers, err)
		}
		return out
	}
	seq := run(1)
	for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
		for i, v := range run(w) {
			if v != seq[i] {
				t.Fatalf("Map(workers=%d)[%d] = %v, sequential %v", w, i, v, seq[i])
			}
		}
	}
}

// TestSolveCanceled: every backend must honor an already-canceled context.
func TestSolveCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := core.PaperGame(4, stat.NewRand(2))
	for _, name := range Names() {
		b, _ := Lookup(name)
		proto, err := b.Precompute(g)
		if err != nil {
			t.Fatalf("%s.Precompute: %v", name, err)
		}
		if _, err := proto.Clone().Solve(ctx); err == nil {
			t.Errorf("%s.Solve ignored a canceled context", name)
		}
	}
}

// TestStage3GameNilLossMatchesSellerProfit: the nil-loss payoff is the
// paper's quadratic seller profit — the exact expression the
// analytic-vs-numeric harness always used, keeping that CSV byte-identical.
func TestStage3GameNilLossMatchesSellerProfit(t *testing.T) {
	g := core.PaperGame(6, stat.NewRand(4))
	if err := g.Precompute(); err != nil {
		t.Fatalf("Precompute: %v", err)
	}
	const pd = 0.02
	tau := g.Stage3Tau(pd)
	ng := Stage3Game(g, pd, nil)
	for i := range tau {
		if got, want := ng.Payoff(i, tau[i], tau), g.SellerProfit(i, pd, tau); got != want {
			t.Errorf("seller %d: Stage3Game payoff %v, SellerProfit %v", i, got, want)
		}
	}
	ngAlt := Stage3Game(g, pd, g.AlternativeLoss())
	for i := range tau {
		if got, want := ngAlt.Payoff(i, tau[i], tau), g.GeneralSellerProfit(i, pd, tau, g.AlternativeLoss()); got != want {
			t.Errorf("seller %d: loss-form payoff %v, GeneralSellerProfit %v", i, got, want)
		}
	}
}
