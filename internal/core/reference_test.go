package core

import (
	"context"
	"fmt"
	"math"

	"share/internal/numeric"
)

// The methods below are the tests' entry points to the general cascade and
// closed-form statements of the paper's comparative statics, reduced
// objectives and per-seller profits and losses. Production code never calls
// them; the tests check the solvers and the numerical derivatives against
// them.

// SolveGeneral is SolveGeneralInto under a background context, into a fresh
// profile.
func (g *Game) SolveGeneral(opt GeneralOptions) (*Profile, error) {
	return g.SolveGeneralCtx(context.Background(), opt)
}

// SolveGeneralCtx is SolveGeneralInto into a fresh profile.
func (g *Game) SolveGeneralCtx(ctx context.Context, opt GeneralOptions) (*Profile, error) {
	p := new(Profile)
	if err := g.SolveGeneralInto(ctx, opt, p); err != nil {
		return nil, err
	}
	return p, nil
}

// MFSellerProfit evaluates seller i's profit under the alternative loss form
// (Eq. 22): Ψᵢ = p^D·χᵢτᵢ − λᵢ·χᵢ·τᵢ², with χᵢ from the allocation rule.
func (g *Game) MFSellerProfit(i int, pD float64, tau []float64) float64 {
	chi := g.Allocation(tau)
	return pD*chi[i]*tau[i] - g.Sellers.Lambda[i]*chi[i]*tau[i]*tau[i]
}

// MeanFieldError compares the exact ("direct derivation") and mean-field
// equilibria under the alternative loss at data price pD, returning the
// signed error τ̄^DD − τ̄^MF of Theorem 5.1 along with both aggregates.
func (g *Game) MeanFieldError(pD float64) (err, ddBar, mfBar float64, solveErr error) {
	dd, solveErr := g.DirectTauMF(pD, 0, 0)
	if solveErr != nil {
		return 0, 0, 0, solveErr
	}
	mf := g.MeanFieldTau(pD)
	ddBar = g.MeanFieldState(dd)
	mfBar = g.MeanFieldState(mf)
	return ddBar - mfBar, ddBar, mfBar, nil
}

// PrivacyLoss returns seller i's loss L_i(τᵢ) = λᵢ·(χᵢτᵢ)² (Eq. 11), taking
// the allocation χᵢ implied by the full fidelity profile.
func (g *Game) PrivacyLoss(i int, tau []float64) float64 {
	chi := g.Allocation(tau)
	q := SellerQuality(chi[i], tau[i])
	return g.Sellers.Lambda[i] * q * q
}

// ReducedBuyerProfit evaluates the buyer's profit as a function of p^M alone,
// with the broker and sellers already at their optimal reactions — the
// objective Stage 1 maximizes.
func (g *Game) ReducedBuyerProfit(pM float64) float64 {
	c1, c2 := g.StageCoefficients()
	return g.Buyer.Theta1*math.Log(1+c1*pM) +
		g.Buyer.Theta2*math.Log(1+g.Buyer.Rho2*g.Buyer.V) -
		c2*g.Buyer.Theta1/2*pM*pM
}

// SensitivityRho2 returns the derivatives with respect to ρ₂ (Fig. 6).
// Neither c₁ nor c₂ involves ρ₂, so both derivatives are identically zero —
// the analytic statement of Fig. 6's flat strategy curves.
func (g *Game) SensitivityRho2() PriceSensitivity {
	return PriceSensitivity{}
}

// SensitivityWeight returns the derivatives with respect to any ωᵢ: zero,
// since the weights never enter Stages 1–2 (Fig. 7's flat price curves).
func (g *Game) SensitivityWeight() PriceSensitivity {
	return PriceSensitivity{}
}

// TauSensitivityOwnLambda returns ∂τᵢ*/∂λᵢ at the current equilibrium,
// holding p^D fixed (the follower-stage effect in Fig. 8; the full effect
// adds the small price channel). From Eq. 20, τᵢ* = K·(ωᵢλᵢ)^(−1/2) + K′
// where the Σ√(ωⱼ/λⱼ) aggregate also contains the i-th term:
//
//	τᵢ* = p^D/(2N)·[ Σ_{j≠i}√(ωⱼ/λⱼ)/√(ωᵢλᵢ) + 1/λᵢ ].
func (g *Game) TauSensitivityOwnLambda(i int, pD float64) (float64, error) {
	if i < 0 || i >= g.M() {
		return 0, fmt.Errorf("core: seller index %d out of range", i)
	}
	wi, li := g.Broker.Weights[i], g.Sellers.Lambda[i]
	var rest float64
	for j, wj := range g.Broker.Weights {
		if j == i {
			continue
		}
		rest += math.Sqrt(wj / g.Sellers.Lambda[j])
	}
	// d/dλᵢ [ rest·(ωᵢλᵢ)^(−1/2) + λᵢ^(−1) ]
	//   = rest·(−1/2)·ωᵢ·(ωᵢλᵢ)^(−3/2) − λᵢ^(−2).
	d := rest*(-0.5)*wi*math.Pow(wi*li, -1.5) - 1/(li*li)
	return pD / (2 * g.Buyer.N) * d, nil
}

// deviationGain is the largest payoff any of m players could gain by a
// unilateral deviation within [0, 1] away from strategies s, each player's
// best response found by golden-section search: zero (up to tolerance) iff
// s is a Nash equilibrium.
func deviationGain(m int, payoff func(i int, x float64, s []float64) float64, s []float64) float64 {
	var worst float64
	for i := 0; i < m; i++ {
		best := numeric.GoldenMax(func(x float64) float64 { return payoff(i, x, s) }, 0, 1, 1e-11)
		if gain := payoff(i, best, s) - payoff(i, s[i], s); gain > worst {
			worst = gain
		}
	}
	return worst
}

// SellerProfits evaluates every seller's profit in one pass (one allocation
// computation instead of m).
func (g *Game) SellerProfits(pD float64, tau []float64) []float64 {
	chi := g.Allocation(tau)
	out := make([]float64, len(tau))
	for i, t := range tau {
		q := SellerQuality(chi[i], t)
		out[i] = pD*q - g.Sellers.Lambda[i]*q*q
	}
	return out
}
