package core

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"share/internal/numeric"
	"share/internal/stat"
)

// TestStage3SatisfiesFOCSystem verifies that Eq. 20 solves the simultaneous
// first-order system of Eq. 18: p^D·Σωⱼτⱼ − 2Nλᵢωᵢτᵢ² = 0 for every i.
func TestStage3SatisfiesFOCSystem(t *testing.T) {
	g := paperTestGame(t, 30, 21)
	pd := 0.02
	tau := g.Stage3Tau(pd)
	var sum float64
	for j, tj := range tau {
		sum += g.Broker.Weights[j] * tj
	}
	for i, ti := range tau {
		if ti >= 1 {
			continue // clamped: interior FOC need not hold
		}
		resid := pd*sum - 2*g.Buyer.N*g.Sellers.Lambda[i]*g.Broker.Weights[i]*ti*ti
		if math.Abs(resid) > 1e-9*(1+pd*sum) {
			t.Errorf("Eq. 18 residual for seller %d = %v", i, resid)
		}
	}
}

// TestStage3IsNashEquilibrium checks Eq. 20 directly against the profit
// functions: no seller can gain by unilaterally moving τᵢ within [0, 1].
func TestStage3IsNashEquilibrium(t *testing.T) {
	g := paperTestGame(t, 25, 22)
	for _, pd := range []float64{0.005, 0.02, 0.1} {
		tau := g.Stage3Tau(pd)
		for i := range tau {
			base := g.SellerProfit(i, pd, tau)
			work := append([]float64(nil), tau...)
			best := numeric.GoldenMax(func(x float64) float64 {
				work[i] = x
				v := g.SellerProfit(i, pd, work)
				work[i] = tau[i]
				return v
			}, 0, 1, 0)
			work[i] = best
			gain := g.SellerProfit(i, pd, work) - base
			if gain > 1e-9*(1+math.Abs(base)) {
				t.Errorf("pd=%v: seller %d gains %v deviating to %v from %v", pd, i, gain, best, tau[i])
			}
		}
	}
}

func TestStage3ScalesLinearlyInPD(t *testing.T) {
	g := paperTestGame(t, 10, 23)
	t1 := g.Stage3Tau(0.01)
	t2 := g.Stage3Tau(0.02)
	for i := range t1 {
		if t1[i] >= 1 || t2[i] >= 1 {
			continue
		}
		if math.Abs(t2[i]-2*t1[i]) > 1e-12 {
			t.Errorf("τ[%d] not linear in p^D: %v vs %v", i, t1[i], t2[i])
		}
	}
}

func TestStage3ClampsAtOne(t *testing.T) {
	g := paperTestGame(t, 10, 24)
	tau := g.Stage3Tau(1e6)
	for i, x := range tau {
		if x != 1 {
			t.Errorf("τ[%d] = %v at huge p^D, want clamp at 1", i, x)
		}
	}
	tau = g.Stage3Tau(0)
	for i, x := range tau {
		if x != 0 {
			t.Errorf("τ[%d] = %v at p^D = 0, want 0", i, x)
		}
	}
}

func TestStage3WeightScaleInvariance(t *testing.T) {
	// Only weight proportions matter... — they do NOT for Eq. 20: τᵢ*
	// depends on the absolute ω scale through √(ωᵢλᵢ) vs Σ√(ωⱼ/λⱼ).
	// Verify the actual homogeneity: scaling all ω by k scales each τᵢ*
	// by... √(k)/√(k) = 1 in the ratio part — check numerically.
	g := paperTestGame(t, 10, 25)
	before := g.Stage3Tau(0.01)
	for i := range g.Broker.Weights {
		g.Broker.Weights[i] *= 7
	}
	after := g.Stage3Tau(0.01)
	for i := range before {
		if math.Abs(before[i]-after[i]) > 1e-12 {
			t.Errorf("τ[%d] changed under uniform weight scaling: %v vs %v", i, before[i], after[i])
		}
	}
}

func TestStage2ClosedForm(t *testing.T) {
	g := paperTestGame(t, 10, 26)
	if got := g.Stage2PD(0.05); math.Abs(got-0.8*0.05/2) > 1e-15 {
		t.Errorf("p^D = %v, want v·p^M/2", got)
	}
	if got := g.Stage2PD(0); got != 0 {
		t.Errorf("p^D at p^M=0 should be 0, got %v", got)
	}
}

// TestStage2MaximizesBrokerProfit confirms Eq. 25 is the argmax of the
// broker's reactive objective.
func TestStage2MaximizesBrokerProfit(t *testing.T) {
	g := paperTestGame(t, 40, 27)
	pm := 0.05
	pdStar := g.Stage2PD(pm)
	numericBest := numeric.GoldenMax(func(pd float64) float64 {
		return g.BrokerObjective(pm, pd)
	}, 0, 5*pdStar, 0)
	if math.Abs(numericBest-pdStar) > 1e-6*(1+pdStar) {
		t.Errorf("broker argmax = %v, closed form %v", numericBest, pdStar)
	}
}

func TestStageCoefficients(t *testing.T) {
	g := paperTestGame(t, 10, 28)
	s := g.SumInvLambda()
	c1, c2 := g.StageCoefficients()
	if math.Abs(c1-g.Buyer.Rho1*g.Buyer.V*s/4) > 1e-12 {
		t.Errorf("c1 = %v", c1)
	}
	if math.Abs(c2-g.Buyer.V*g.Buyer.V*s/(2*g.Buyer.Theta1)) > 1e-12 {
		t.Errorf("c2 = %v", c2)
	}
}

// TestStage1RootSolvesQuadratic verifies Eq. 27 satisfies
// c₁c₂·p² + c₂·p − c₁ = 0 with p > 0.
func TestStage1RootSolvesQuadratic(t *testing.T) {
	g := paperTestGame(t, 100, 29)
	pm, err := g.Stage1PM()
	if err != nil {
		t.Fatalf("Stage1PM: %v", err)
	}
	c1, c2 := g.StageCoefficients()
	resid := c1*c2*pm*pm + c2*pm - c1
	if math.Abs(resid) > 1e-9*(c1+c2) {
		t.Errorf("quadratic residual = %v", resid)
	}
	if pm <= 0 {
		t.Errorf("p^M* = %v, want positive", pm)
	}
}

// TestStage1MaximizesReducedProfit confirms Eq. 27 is the argmax of the
// reduced buyer objective, and that the reduced closed form agrees with the
// full profile evaluation along the reaction path.
func TestStage1MaximizesReducedProfit(t *testing.T) {
	g := paperTestGame(t, 60, 30)
	pm, err := g.Stage1PM()
	if err != nil {
		t.Fatalf("Stage1PM: %v", err)
	}
	best := numeric.GoldenMax(g.ReducedBuyerProfit, 0, 5*pm, 0)
	if math.Abs(best-pm) > 1e-6*(1+pm) {
		t.Errorf("buyer argmax = %v, closed form %v", best, pm)
	}
	// Consistency of the reduced form with the explicit profile machinery.
	for _, x := range []float64{pm / 2, pm, 2 * pm} {
		reduced := g.ReducedBuyerProfit(x)
		full := g.BuyerObjective(x)
		if math.Abs(reduced-full) > 1e-9*(1+math.Abs(full)) {
			t.Errorf("reduced(%v) = %v, full = %v", x, reduced, full)
		}
	}
}

func TestStage1DegenerateParameters(t *testing.T) {
	g := paperTestGame(t, 3, 31)
	g.Sellers.Lambda = []float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	if _, err := g.Stage1PM(); err == nil {
		t.Error("Stage1PM accepted infinite λ (c₁ = 0)")
	}
}

func TestEvaluateProfileConsistency(t *testing.T) {
	g := paperTestGame(t, 15, 32)
	rng := stat.NewRand(33)
	tau := make([]float64, 15)
	for i := range tau {
		tau[i] = rng.Float64()
	}
	p := g.EvaluateProfile(0.04, 0.015, tau)
	if math.Abs(p.BuyerProfit-g.BuyerProfit(0.04, tau)) > 1e-12 {
		t.Error("profile buyer profit differs from direct evaluation")
	}
	if math.Abs(p.BrokerProfit-g.BrokerProfit(0.04, 0.015, tau)) > 1e-12 {
		t.Error("profile broker profit differs from direct evaluation")
	}
	for i := range tau {
		if math.Abs(p.SellerProfits[i]-g.SellerProfit(i, 0.015, tau)) > 1e-12 {
			t.Errorf("profile seller %d profit differs", i)
		}
	}
	if math.Abs(p.QM-p.QD*g.Buyer.V) > 1e-12 {
		t.Error("q^M != q^D·v")
	}
	// The profile must own its tau copy.
	tau[0] = -1
	if p.Tau[0] == -1 {
		t.Error("EvaluateProfile aliases the caller's tau slice")
	}
}

// Property: for random parameterizations, Solve returns a profile whose
// prices and fidelities are positive, finite, with Σχ = N.
func TestSolveWellFormedProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := stat.NewRand(seed)
		m := 2 + rng.Intn(60)
		g := PaperGame(m, rng)
		// Randomize the buyer a bit too.
		g.Buyer.N = float64(100 + rng.Intn(2000))
		g.Buyer.V = 0.1 + 0.89*rng.Float64()
		th := 0.1 + 0.8*rng.Float64()
		g.Buyer.Theta1, g.Buyer.Theta2 = th, 1-th
		g.Buyer.Rho1 = 0.05 + 5*rng.Float64()
		p, err := g.Solve()
		if err != nil {
			return false
		}
		if !(p.PM > 0) || !(p.PD > 0) || math.IsInf(p.PM, 0) || math.IsNaN(p.PM) {
			return false
		}
		var total float64
		for i, x := range p.Tau {
			if x < 0 || x > 1 {
				return false
			}
			total += p.Chi[i]
		}
		return math.Abs(total-g.Buyer.N) < 1e-6*g.Buyer.N
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestCheckFinite: CheckFinite passes a solved profile without allocating
// and names the first NaN or infinite field of a broken one.
func TestCheckFinite(t *testing.T) {
	g := PaperGame(8, stat.NewRand(3))
	p, err := g.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckFinite(); err != nil {
		t.Fatalf("solved profile: %v", err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = p.CheckFinite() }); allocs != 0 {
		t.Errorf("CheckFinite allocated %v times per call", allocs)
	}
	for _, tc := range []struct {
		name    string
		corrupt func(q *Profile)
	}{
		{"p^D", func(q *Profile) { q.PD = math.NaN() }},
		{"broker profit", func(q *Profile) { q.BrokerProfit = math.Inf(-1) }},
		{"χ[2]", func(q *Profile) { q.Chi[2] = math.Inf(1) }},
		{"seller profit[7]", func(q *Profile) { q.SellerProfits[7] = math.NaN() }},
	} {
		q := *p
		q.Chi = append([]float64(nil), p.Chi...)
		q.SellerProfits = append([]float64(nil), p.SellerProfits...)
		tc.corrupt(&q)
		err := q.CheckFinite()
		if !errors.Is(err, ErrNotFinite) || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("%s broken: error %v, want ErrNotFinite naming it", tc.name, err)
		}
	}
}
