package core

import (
	"fmt"
	"math"
)

// Comparative statics: closed-form derivatives of the equilibrium prices
// with respect to the market parameters. These are the analytic versions of
// the sensitivity sweeps in Figs. 4–8 — they state *why* each curve has its
// shape (e.g. ∂p^M*/∂ρ₂ ≡ 0 explains Fig. 6's flat strategies) and let
// callers compute elasticities without finite differencing. Each derivative
// is verified against numerical differentiation in the test suite.
//
// Notation: S = Σ1/λᵢ, c₁ = ρ₁vS/4, c₂ = v²S/(2θ₁), D = √(c₂²+4c₁²c₂), and
// p^M* = (−c₂+D)/(2c₁c₂) (Eq. 27). The chain rule routes every parameter
// through (c₁, c₂).

// dPMdC returns the partial derivatives of p^M* with respect to c₁ and c₂.
func dPMdC(c1, c2 float64) (dc1, dc2 float64) {
	d := math.Sqrt(c2*c2 + 4*c1*c1*c2)
	num := -c2 + d
	den := 2 * c1 * c2
	// ∂D/∂c1 and ∂D/∂c2.
	dDdc1 := 4 * c1 * c2 / d
	dDdc2 := (c2 + 2*c1*c1) / d
	// Quotient rule on p^M = num/den.
	dc1 = (dDdc1*den - num*2*c2) / (den * den)
	dc2 = ((-1+dDdc2)*den - num*2*c1) / (den * den)
	return dc1, dc2
}

// PriceSensitivity holds the equilibrium price derivatives with respect to
// one scalar parameter.
type PriceSensitivity struct {
	// DPM is ∂p^M*/∂x.
	DPM float64
	// DPD is ∂p^D*/∂x = v/2·∂p^M*/∂x (+ p^M/2 when x is v itself).
	DPD float64
}

// SensitivityTheta1 returns the equilibrium price derivatives with respect
// to θ₁ (holding θ₂ = 1−θ₁, as in Fig. 4). c₁ is θ-free; c₂ ∝ 1/θ₁.
func (g *Game) SensitivityTheta1() PriceSensitivity {
	c1, c2 := g.StageCoefficients()
	_, dc2 := dPMdC(c1, c2)
	dPM := dc2 * (-c2 / g.Buyer.Theta1)
	return PriceSensitivity{DPM: dPM, DPD: g.Buyer.V / 2 * dPM}
}

// SensitivityRho1 returns the derivatives with respect to ρ₁ (Fig. 5).
// c₁ ∝ ρ₁; c₂ is ρ₁-free.
func (g *Game) SensitivityRho1() PriceSensitivity {
	c1, c2 := g.StageCoefficients()
	dc1, _ := dPMdC(c1, c2)
	dPM := dc1 * (c1 / g.Buyer.Rho1)
	return PriceSensitivity{DPM: dPM, DPD: g.Buyer.V / 2 * dPM}
}

// SensitivityV returns the derivatives with respect to the demanded
// performance v. c₁ ∝ v and c₂ ∝ v²; p^D* = v·p^M*/2 picks up the direct
// term p^M*/2 as well.
func (g *Game) SensitivityV() (PriceSensitivity, error) {
	c1, c2 := g.StageCoefficients()
	dc1, dc2 := dPMdC(c1, c2)
	v := g.Buyer.V
	dPM := dc1*(c1/v) + dc2*(2*c2/v)
	pm, err := g.Stage1PM()
	if err != nil {
		return PriceSensitivity{}, fmt.Errorf("core: sensitivity to v: %w", err)
	}
	return PriceSensitivity{DPM: dPM, DPD: pm/2 + v/2*dPM}, nil
}

// SensitivityLambda returns the derivatives with respect to one seller's
// privacy sensitivity λᵢ (Fig. 8). Both coefficients depend on λᵢ only
// through S: ∂S/∂λᵢ = −1/λᵢ².
func (g *Game) SensitivityLambda(i int) (PriceSensitivity, error) {
	if i < 0 || i >= g.M() {
		return PriceSensitivity{}, fmt.Errorf("core: seller index %d out of range", i)
	}
	c1, c2 := g.StageCoefficients()
	dc1, dc2 := dPMdC(c1, c2)
	s := g.SumInvLambda()
	li := g.Sellers.Lambda[i]
	dS := -1 / (li * li)
	dPM := (dc1*(c1/s) + dc2*(c2/s)) * dS
	return PriceSensitivity{DPM: dPM, DPD: g.Buyer.V / 2 * dPM}, nil
}

// Elasticity converts a derivative into an elasticity (x/y)·(dy/dx) at the
// point (x, y); it returns 0 when y is 0.
func Elasticity(x, y, dydx float64) float64 {
	if y == 0 {
		return 0
	}
	return x / y * dydx
}
