package core

import (
	"errors"
	"fmt"
	"math"
)

// Stage3Tau returns the sellers' inner Nash equilibrium fidelities for a
// given unit data price p^D by the paper's direct derivation (Eq. 20):
//
//	τᵢ* = p^D / (2N·√(ωᵢλᵢ)) · Σⱼ √(ωⱼ/λⱼ),
//
// clamped to the feasible range [0, 1]: when the interior optimum exceeds 1,
// each seller's profit is monotonically increasing on [0, 1] and is maximized
// at the right endpoint (equilibrium analysis in §5.1.4).
func (g *Game) Stage3Tau(pD float64) []float64 {
	return g.Stage3TauInto(pD, make([]float64, g.M()))
}

// Stage3TauInto is Stage3Tau writing into dst, for hot paths that reuse a
// buffer instead of allocating per call. It returns dst[:m], or a fresh
// slice when dst's capacity is short of m; values are bit-identical to
// Stage3Tau's.
func (g *Game) Stage3TauInto(pD float64, dst []float64) []float64 {
	sum := g.SumSqrtWeightOverLambda()
	tau := resize(dst, g.M())
	if pD <= 0 {
		clear(tau)
		return tau
	}
	// The Precompute snapshot supplies √(ωᵢλᵢ) directly; the expression is
	// otherwise evaluated with the exact same operations, so cached and
	// uncached fidelities are bit-for-bit identical.
	twoN := 2 * g.Buyer.N
	if agg := g.cached(); agg != nil {
		for i := range tau {
			t := pD / (twoN * agg.sqrtWL[i]) * sum
			if t > 1 {
				t = 1
			}
			tau[i] = t
		}
		return tau
	}
	for i := range tau {
		t := pD / (twoN * math.Sqrt(g.Broker.Weights[i]*g.Sellers.Lambda[i])) * sum
		if t > 1 {
			t = 1
		}
		tau[i] = t
	}
	return tau
}

// Stage2PD returns the broker's optimal unit data price for a given unit
// product price p^M (Eq. 25): p^D* = v·p^M/2. The closed form follows from
// substituting the sellers' reaction (Eq. 20) into the broker's profit and
// solving the first-order condition; the profit is strictly concave in p^D
// (second derivative −Σ1/λᵢ < 0).
func (g *Game) Stage2PD(pM float64) float64 {
	if pM <= 0 {
		return 0
	}
	return g.Buyer.V * pM / 2
}

// StageCoefficients returns the aggregates c₁ = ρ₁vS/4 and c₂ = v²S/(2θ₁)
// with S = Σ1/λᵢ, the constants of the buyer's reduced profit
// Φ(p^M) = θ₁ln(1+c₁p^M) + θ₂ln(1+ρ₂v) − (c₂θ₁/2)·(p^M)² (§5.1.3).
func (g *Game) StageCoefficients() (c1, c2 float64) {
	s := g.SumInvLambda()
	c1 = g.Buyer.Rho1 * g.Buyer.V * s / 4
	c2 = g.Buyer.V * g.Buyer.V * s / (2 * g.Buyer.Theta1)
	return c1, c2
}

// Stage1PM returns the buyer's optimal unit product price (Eq. 27), the
// positive root of c₁c₂·(p^M)² + c₂·p^M − c₁ = 0:
//
//	p^M* = (−c₂ + √(c₂² + 4c₁²c₂)) / (2c₁c₂).
//
// It errs if the aggregates degenerate (possible only with invalid
// parameters, e.g. infinite λ).
func (g *Game) Stage1PM() (float64, error) {
	c1, c2 := g.StageCoefficients()
	if !(c1 > 0) || !(c2 > 0) || math.IsInf(c1, 0) || math.IsInf(c2, 0) {
		return 0, fmt.Errorf("core: degenerate stage-1 coefficients c₁=%g c₂=%g", c1, c2)
	}
	disc := c2*c2 + 4*c1*c1*c2
	pm := (-c2 + math.Sqrt(disc)) / (2 * c1 * c2)
	if !(pm > 0) || math.IsNaN(pm) {
		return 0, errors.New("core: stage 1 produced a non-positive product price")
	}
	return pm, nil
}

// ApproxBound documents the quality guarantee of an approximately-solved
// equilibrium: the Theorem 5.1 interval for the mean-fidelity error
// τ̄^exact − τ̄^approx, and whether the theorem's ω-scaling precondition
// (ωᵢ/λᵢ ≤ 1/(p^D·m²)) held at the solved data price. Exact solvers leave
// Profile.Approx nil.
type ApproxBound struct {
	// Lo and Hi bound the signed mean-fidelity error (Theorem 5.1).
	Lo, Hi float64
	// ConditionHolds reports whether the theorem's precondition held, i.e.
	// whether the interval is an actual guarantee rather than a heuristic.
	ConditionHolds bool
}

// Profile is a complete strategy profile with its realized quantities and
// profits — the output of Solve, or of evaluating a deviated profile.
type Profile struct {
	// PM is the unit product price p^M (the buyer's strategy).
	PM float64
	// PD is the unit data price p^D (the broker's strategy).
	PD float64
	// Tau are the sellers' data fidelities τᵢ (the followers' strategies).
	Tau []float64
	// Chi is the realized allocation χᵢ (Eq. 13); Σχᵢ = N whenever any
	// fidelity is positive.
	Chi []float64
	// QD is the total manufacturing dataset quality q^D.
	QD float64
	// QM is the product quality q^M = q^D·v.
	QM float64
	// BuyerProfit is Φ at this profile.
	BuyerProfit float64
	// BrokerProfit is Ω at this profile.
	BrokerProfit float64
	// SellerProfits are Ψᵢ at this profile.
	SellerProfits []float64
	// Approx carries the error guarantee when the profile came from an
	// approximate solver (the mean-field backend); nil for exact solves.
	Approx *ApproxBound
	// Effort carries the numerical cascade's effort counters when the
	// profile came from the general backend; nil for closed-form solves.
	// It is telemetry, not part of the equilibrium, and never serialized.
	Effort *GeneralStats `json:"-"`
}

// ErrNotFinite marks an equilibrium with a NaN or infinite price, fidelity,
// allocation, quality or profit: the demand or the game's parameters pushed
// the closed forms past float64's range, so the profile can be neither
// served nor traded on.
var ErrNotFinite = errors.New("core: equilibrium is not finite")

// CheckFinite returns an error wrapping ErrNotFinite that names the first
// field of p that is NaN or infinite, or nil when every price, fidelity,
// allocation, quality and profit is finite. It allocates only to report a
// failure.
func (p *Profile) CheckFinite() error {
	scalars := [...]struct {
		name string
		v    float64
	}{{"p^M", p.PM}, {"p^D", p.PD}, {"q^D", p.QD}, {"q^M", p.QM}, {"buyer profit", p.BuyerProfit}, {"broker profit", p.BrokerProfit}}
	for _, s := range scalars {
		if math.IsNaN(s.v) || math.IsInf(s.v, 0) {
			return fmt.Errorf("%w: %s = %g", ErrNotFinite, s.name, s.v)
		}
	}
	vectors := [...]struct {
		name string
		v    []float64
	}{{"τ", p.Tau}, {"χ", p.Chi}, {"seller profit", p.SellerProfits}}
	for _, vec := range vectors {
		for i, x := range vec.v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("%w: %s[%d] = %g", ErrNotFinite, vec.name, i, x)
			}
		}
	}
	return nil
}

// EvaluateProfile computes allocations, qualities and all profits for an
// arbitrary strategy profile (p^M, p^D, τ). It is the workhorse behind both
// Solve and the unilateral-deviation experiments of Fig. 2.
func (g *Game) EvaluateProfile(pM, pD float64, tau []float64) *Profile {
	p := new(Profile)
	g.EvaluateProfileInto(pM, pD, tau, p)
	return p
}

// EvaluateProfileInto is EvaluateProfile writing into dst: tau is copied
// into dst.Tau (it may be dst.Tau itself), and dst's Tau, Chi and
// SellerProfits arrays are reused when their capacity suffices. Every field
// of dst is written — Approx and Effort are cleared — so a reused profile
// never shows an earlier answer. The allocation, quality and profit passes
// are fused into one loop; every arithmetic expression and accumulation
// order matches the Allocation / SellerQuality / SellerProfits definitions,
// so results are bit-identical to evaluating them separately.
func (g *Game) EvaluateProfileInto(pM, pD float64, tau []float64, dst *Profile) {
	m := len(tau)
	t := resize(dst.Tau, m)
	copy(t, tau)
	chi := resize(dst.Chi, m)
	profits := resize(dst.SellerProfits, m)
	var denom float64
	for j, x := range t {
		denom += g.Broker.Weights[j] * x
	}
	var qD float64
	if denom > 0 {
		for i, x := range t {
			c := g.Buyer.N * g.Broker.Weights[i] * x / denom
			chi[i] = c
			q := c * x
			qD += q
			profits[i] = pD*q - g.Sellers.Lambda[i]*q*q
		}
	} else {
		clear(chi)
		clear(profits)
	}
	qM := g.ProductQuality(qD)
	*dst = Profile{
		PM:            pM,
		PD:            pD,
		Tau:           t,
		Chi:           chi,
		QD:            qD,
		QM:            qM,
		BuyerProfit:   g.Utility(qD) - pM*qM,
		BrokerProfit:  pM*qM - g.ManufacturingCost() - pD*qD,
		SellerProfits: profits,
	}
}

// resize returns s with length n, reusing its array when the capacity
// suffices and allocating a fresh one otherwise. Callers write every entry.
func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Solve runs the full backward induction (§5.1): Stage 3 yields the sellers'
// reaction expression, Stage 2 the broker's reaction, Stage 1 the buyer's
// optimal price value; substituting back produces the complete optimal
// strategy profile ⟨p^M*, p^D*, τ*⟩ — the Stackelberg-Nash Equilibrium
// (Thm. 5.2 proves it exists and is unique).
//
// Validation contract: parameters are validated once per construction or
// mutation, not once per solve. Without a Precompute snapshot Solve runs the
// full O(m) Validate as before; with a valid snapshot the seller side was
// already validated by Precompute and only the (O(1), freely mutable) buyer
// parameters are re-checked. Direct writes to λ/ω on a precomputed game must
// go through SetLambda/SetWeight or be followed by Invalidate.
func (g *Game) Solve() (*Profile, error) {
	p := new(Profile)
	if err := g.SolveInto(p); err != nil {
		return nil, err
	}
	return p, nil
}

// SolveInto is Solve writing the equilibrium into dst, reusing dst's
// vectors as EvaluateProfileInto does; dst is written only on success.
//
// A Game copied by assignment (c := *g) shares the original's seller
// slices and Precompute snapshot, so setting c.Buyer and calling
// c.SolveInto solves a new demand against a shared prototype without
// writing to it — the quote path's allocation-free way to serve many
// buyers, concurrently, from one precomputed game.
func (g *Game) SolveInto(dst *Profile) error {
	if g.cached() == nil {
		if err := g.Validate(); err != nil {
			return err
		}
	} else if err := g.Buyer.Validate(); err != nil {
		return err
	}
	return g.solveInto(dst)
}

// SolveValidated is Solve minus all validation — the fast path for sweeps
// that re-solve one validated game thousands of times. Contract: the caller
// guarantees Validate would pass (e.g. Precompute returned nil and no
// mutation followed); behaviour on an invalid game is undefined. Combined
// with Precompute, the per-solve overhead of Stages 1–2 drops from O(m)
// to O(1); results are bit-for-bit identical to Solve.
func (g *Game) SolveValidated() (*Profile, error) {
	p := new(Profile)
	if err := g.solveInto(p); err != nil {
		return nil, err
	}
	return p, nil
}

// solveInto is the shared backward-induction body of SolveInto and
// SolveValidated.
func (g *Game) solveInto(dst *Profile) error {
	pm, err := g.Stage1PM()
	if err != nil {
		return err
	}
	pd := g.Stage2PD(pm)
	dst.Tau = g.Stage3TauInto(pd, dst.Tau)
	g.EvaluateProfileInto(pm, pd, dst.Tau, dst)
	return nil
}
