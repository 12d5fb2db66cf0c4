package core

import (
	"math"
	"testing"
	"testing/quick"

	"share/internal/stat"
)

func TestMeanFieldClosedForm(t *testing.T) {
	g := paperTestGame(t, 5, 50)
	g.Sellers.Lambda = []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	pd := 0.03
	tau := g.MeanFieldTau(pd)
	for i, l := range g.Sellers.Lambda {
		want := math.Min(1, 2*pd/(3*l))
		if math.Abs(tau[i]-want) > 1e-15 {
			t.Errorf("τ^MF[%d] = %v, want %v", i, tau[i], want)
		}
	}
	for _, x := range g.MeanFieldTau(0) {
		if x != 0 {
			t.Error("mean-field τ at p^D = 0 should be 0")
		}
	}
	// Clamping.
	for _, x := range g.MeanFieldTau(1e3) {
		if x != 1 {
			t.Error("mean-field τ should clamp at 1")
		}
	}
}

func TestMeanFieldState(t *testing.T) {
	g := paperTestGame(t, 2, 51)
	g.Broker.Weights = []float64{1, 3}
	// τ̄ = (1·0.5 + 3·0.1)/2 = 0.4.
	if got := g.MeanFieldState([]float64{0.5, 0.1}); math.Abs(got-0.4) > 1e-15 {
		t.Errorf("τ̄ = %v, want 0.4", got)
	}
}

// TestDirectTauMFIsNashEquilibrium cross-validates the Eq. 24 fixed point
// against the numerical Nash solver on the alternative-loss profit
// functions.
func TestDirectTauMFIsNashEquilibrium(t *testing.T) {
	g := paperTestGame(t, 10, 52)
	pd := 0.05
	dd, err := g.DirectTauMF(pd, 0, 0)
	if err != nil {
		t.Fatalf("DirectTauMF: %v", err)
	}
	resid := deviationGain(g.M(), func(i int, x float64, s []float64) float64 {
		tau := append([]float64(nil), s...)
		tau[i] = x
		return g.MFSellerProfit(i, pd, tau)
	}, dd)
	if resid > 1e-6 {
		t.Errorf("Eq. 24 fixed point leaves deviation gain %v", resid)
	}
}

// TestTheorem51BoundHolds verifies the paper's error bound: with the
// ω-scaling precondition, τ̄^DD − τ̄^MF ∈ (−1/6m², 1/m − 2/3m²).
func TestTheorem51BoundHolds(t *testing.T) {
	for _, m := range []int{10, 50, 100, 500} {
		g := paperTestGame(t, m, int64(53+m))
		p, err := g.Solve()
		if err != nil {
			t.Fatalf("m=%d Solve: %v", m, err)
		}
		if err := g.ScaleWeightsForBound(p.PD); err != nil {
			t.Fatalf("m=%d ScaleWeightsForBound: %v", m, err)
		}
		if !g.BoundCondition(p.PD) {
			t.Fatalf("m=%d: scaling did not establish the precondition", m)
		}
		errVal, _, _, err := g.MeanFieldError(p.PD)
		if err != nil {
			t.Fatalf("m=%d MeanFieldError: %v", m, err)
		}
		lo, hi := Theorem51Bounds(m)
		if errVal <= lo || errVal >= hi {
			t.Errorf("m=%d: error %v outside (%v, %v)", m, errVal, lo, hi)
		}
	}
}

// TestMeanFieldErrorShrinksWithM verifies the empirical conclusion of the
// error analysis: more sellers → smaller approximation error.
func TestMeanFieldErrorShrinksWithM(t *testing.T) {
	errAt := func(m int) float64 {
		g := paperTestGame(t, m, 60)
		p, err := g.Solve()
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		if err := g.ScaleWeightsForBound(p.PD); err != nil {
			t.Fatalf("ScaleWeightsForBound: %v", err)
		}
		e, _, _, err := g.MeanFieldError(p.PD)
		if err != nil {
			t.Fatalf("MeanFieldError: %v", err)
		}
		return math.Abs(e)
	}
	small, large := errAt(10), errAt(1000)
	if large >= small {
		t.Errorf("error did not shrink: |err(10)| = %v, |err(1000)| = %v", small, large)
	}
}

func TestTheorem51Bounds(t *testing.T) {
	lo, hi := Theorem51Bounds(10)
	if math.Abs(lo+1.0/600) > 1e-15 {
		t.Errorf("lower bound = %v, want −1/600", lo)
	}
	if math.Abs(hi-(0.1-2.0/300)) > 1e-15 {
		t.Errorf("upper bound = %v, want 1/10 − 2/300", hi)
	}
}

func TestScaleWeightsForBound(t *testing.T) {
	g := paperTestGame(t, 20, 61)
	if err := g.ScaleWeightsForBound(0); err == nil {
		t.Error("accepted non-positive price")
	}
	pd := 0.02
	if err := g.ScaleWeightsForBound(pd); err != nil {
		t.Fatalf("ScaleWeightsForBound: %v", err)
	}
	m := float64(g.M())
	limit := 1 / (pd * m * m)
	tight := false
	for i, w := range g.Broker.Weights {
		r := w / g.Sellers.Lambda[i]
		if r > limit*(1+1e-9) {
			t.Errorf("seller %d violates the precondition: %v > %v", i, r, limit)
		}
		if r > limit*(1-1e-9) {
			tight = true
		}
	}
	if !tight {
		t.Error("scaling should make the precondition tight for some seller")
	}
}

// TestBoundConditionDetection: unscaled paper weights generally violate the
// precondition at equilibrium prices.
func TestBoundConditionDetection(t *testing.T) {
	g := paperTestGame(t, 100, 62)
	if g.BoundCondition(10) {
		t.Error("BoundCondition accepted clearly violating weights (p^D = 10)")
	}
}

// Property: the mean-field fixed point is stable — re-deriving each seller's
// best response at the equilibrium profile reproduces her strategy.
func TestDirectTauMFFixedPointProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := stat.NewRand(seed)
		m := 3 + rng.Intn(20)
		g := PaperGame(m, rng)
		pd := 0.01 + 0.05*rng.Float64()
		tau, err := g.DirectTauMF(pd, 0, 0)
		if err != nil {
			return false
		}
		var total float64
		for i, x := range tau {
			total += g.Broker.Weights[i] * x
		}
		for i, x := range tau {
			rival := total - g.Broker.Weights[i]*x
			br := g.mfBestResponse(i, pd, rival)
			if math.Abs(br-x) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
