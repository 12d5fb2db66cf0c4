package core

import (
	"math"
	"testing"
)

func TestGeneralSellerProfitMatchesQuadratic(t *testing.T) {
	g := paperTestGame(t, 8, 80)
	tau := g.Stage3Tau(0.02)
	loss := g.QuadraticLoss()
	for i := range tau {
		want := g.SellerProfit(i, 0.02, tau)
		got := g.GeneralSellerProfit(i, 0.02, tau, loss)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("seller %d: general %v vs specific %v", i, got, want)
		}
	}
}

func TestGeneralSellerProfitMatchesAlternative(t *testing.T) {
	g := paperTestGame(t, 8, 81)
	tau := g.MeanFieldTau(0.02)
	loss := g.AlternativeLoss()
	for i := range tau {
		want := g.MFSellerProfit(i, 0.02, tau)
		got := g.GeneralSellerProfit(i, 0.02, tau, loss)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("seller %d: general %v vs MF-specific %v", i, got, want)
		}
	}
}

// TestSolveGeneralReproducesAnalyticSNE is the key regression: on the
// paper's quadratic loss, the fully numerical backward induction must land
// on the same equilibrium as the closed forms.
func TestSolveGeneralReproducesAnalyticSNE(t *testing.T) {
	g := paperTestGame(t, 10, 82)
	analytic, err := g.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	general, err := g.SolveGeneral(GeneralOptions{Loss: g.QuadraticLoss()})
	if err != nil {
		t.Fatalf("SolveGeneral: %v", err)
	}
	if math.Abs(general.PM-analytic.PM) > 1e-3*(1+analytic.PM) {
		t.Errorf("p^M: general %v vs analytic %v", general.PM, analytic.PM)
	}
	if math.Abs(general.PD-analytic.PD) > 1e-3*(1+analytic.PD) {
		t.Errorf("p^D: general %v vs analytic %v", general.PD, analytic.PD)
	}
	for i := range analytic.Tau {
		if math.Abs(general.Tau[i]-analytic.Tau[i]) > 1e-3*(1+analytic.Tau[i]) {
			t.Errorf("τ[%d]: general %v vs analytic %v", i, general.Tau[i], analytic.Tau[i])
		}
	}
	// Profits agree too.
	if math.Abs(general.BuyerProfit-analytic.BuyerProfit) > 1e-4*(1+math.Abs(analytic.BuyerProfit)) {
		t.Errorf("buyer profit: general %v vs analytic %v", general.BuyerProfit, analytic.BuyerProfit)
	}
}

// TestSolveGeneralCubicLossIsEquilibrium solves a loss with no closed form
// and verifies the Stage-3 outcome is a true Nash equilibrium of that game.
func TestSolveGeneralCubicLossIsEquilibrium(t *testing.T) {
	g := paperTestGame(t, 6, 83)
	loss := g.CubicLoss()
	p, err := g.SolveGeneral(GeneralOptions{Loss: loss})
	if err != nil {
		t.Fatalf("SolveGeneral: %v", err)
	}
	if !(p.PM > 0) || !(p.PD > 0) {
		t.Fatalf("degenerate prices: %+v", p)
	}
	resid := deviationGain(g.M(), func(i int, x float64, s []float64) float64 {
		tau := append([]float64(nil), s...)
		tau[i] = x
		return g.GeneralSellerProfit(i, p.PD, tau, loss)
	}, p.Tau)
	if resid > 1e-6 {
		t.Errorf("cubic-loss Stage 3 leaves deviation gain %v", resid)
	}
	// Seller profits recorded under the cubic loss, not the quadratic one.
	for i := range p.Tau {
		want := g.GeneralSellerProfit(i, p.PD, p.Tau, loss)
		if math.Abs(p.SellerProfits[i]-want) > 1e-9 {
			t.Errorf("seller %d profit = %v, want %v under cubic loss", i, p.SellerProfits[i], want)
		}
	}
}

// TestSolveGeneralTauUpperBoundary drives Stage 3 to the τ = 1 corner: a
// vanishing privacy loss makes full fidelity dominant for every seller
// (payoff p^D·χτ − ε·τ is increasing on [0, 1]), so the numerical cascade
// must land on the boundary rather than stall at an interior golden-section
// midpoint.
func TestSolveGeneralTauUpperBoundary(t *testing.T) {
	g := paperTestGame(t, 5, 85)
	negligible := func(i int, chi, tau float64) float64 { return 1e-12 * tau }
	p, err := g.SolveGeneral(GeneralOptions{Loss: negligible})
	if err != nil {
		t.Fatalf("SolveGeneral: %v", err)
	}
	for i, tau := range p.Tau {
		if tau < 1-1e-6 {
			t.Errorf("τ[%d] = %v, want the upper boundary 1 under a negligible loss", i, tau)
		}
	}
}

// TestSolveGeneralTauLowerBoundary drives Stage 3 to the τ = 0 corner: a
// loss growing linearly in τ with a slope far above any attainable data
// price makes every positive fidelity strictly unprofitable. The cascade
// must settle on (near-)zero strategies without tripping on the allocation
// rule's denominator at τ = 0.
func TestSolveGeneralTauLowerBoundary(t *testing.T) {
	g := paperTestGame(t, 5, 86)
	prohibitive := func(i int, chi, tau float64) float64 { return 1e6 * g.Sellers.Lambda[i] * chi * tau }
	p, err := g.SolveGeneral(GeneralOptions{Loss: prohibitive})
	if err != nil {
		t.Fatalf("SolveGeneral: %v", err)
	}
	for i, tau := range p.Tau {
		if tau > 1e-6 {
			t.Errorf("τ[%d] = %v, want the lower boundary 0 under a prohibitive loss", i, tau)
		}
	}
}

func TestSolveGeneralValidation(t *testing.T) {
	g := paperTestGame(t, 4, 84)
	if _, err := g.SolveGeneral(GeneralOptions{}); err == nil {
		t.Error("accepted a nil loss function")
	}
	bad := g.Clone()
	bad.Sellers.Lambda = bad.Sellers.Lambda[:3]
	if _, err := bad.SolveGeneral(GeneralOptions{Loss: g.QuadraticLoss()}); err == nil {
		t.Error("accepted an invalid game")
	}
}
