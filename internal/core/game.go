// Package core implements the paper's primary contribution: the three-stage
// Stackelberg-Nash game over a buyer (leader), a broker (sub-leader) and m
// competing sellers (followers), its profit functions (Eqs. 5–13), the
// backward-induction equilibrium derivation (Eqs. 20, 25, 27), the
// Stackelberg-Nash Equilibrium definition and verification (Def. 4.2,
// Thm. 5.2), and the mean-field approximate Nash solver with its Theorem 5.1
// error bounds.
//
// A Game value captures one transaction's parameters: the buyer's demand
// (N, v) and utility parameters (θ, ρ), the broker's translog cost parameters
// and the per-seller dataset weights ω, and each seller's privacy sensitivity
// λ. Solve runs the full backward induction and returns the optimal strategy
// profile ⟨p^M*, p^D*, τ*⟩ together with realized allocations and profits.
package core

import (
	"errors"
	"fmt"
	"math"

	"share/internal/translog"
)

// Buyer holds the leader's demand and utility parameters (§4.1.1).
type Buyer struct {
	// N is the total data quantity demanded for manufacturing (Σχᵢ = N).
	N float64
	// V is the required product performance (e.g. explained variance for a
	// regression product). Must be positive.
	V float64
	// Theta1 and Theta2 weight the buyer's concern for dataset quality and
	// product performance; they must be in (0, 1) and sum to 1 (Eq. 6).
	Theta1, Theta2 float64
	// Rho1 and Rho2 are the buyer's sensitivities to dataset quality and
	// product performance (Eq. 5); both must be positive.
	Rho1, Rho2 float64
}

// Validate checks the buyer parameters against the paper's constraints.
func (b Buyer) Validate() error {
	if !(b.N > 0) {
		return fmt.Errorf("core: buyer data quantity N must be positive, got %g", b.N)
	}
	if !(b.V > 0) {
		return fmt.Errorf("core: required performance v must be positive, got %g", b.V)
	}
	if !(b.Theta1 > 0 && b.Theta1 < 1) || !(b.Theta2 > 0 && b.Theta2 < 1) {
		return fmt.Errorf("core: θ₁, θ₂ must lie in (0,1), got θ₁=%g θ₂=%g", b.Theta1, b.Theta2)
	}
	if math.Abs(b.Theta1+b.Theta2-1) > 1e-9 {
		return fmt.Errorf("core: θ₁+θ₂ must equal 1, got %g", b.Theta1+b.Theta2)
	}
	if !(b.Rho1 > 0) || !(b.Rho2 > 0) {
		return fmt.Errorf("core: ρ₁, ρ₂ must be positive, got ρ₁=%g ρ₂=%g", b.Rho1, b.Rho2)
	}
	return nil
}

// Broker holds the sub-leader's manufacturing cost model and the dataset
// weights ω it maintains for the sellers (§4.1.2, Eq. 13).
type Broker struct {
	// Cost holds the translog cost parameters σ₀..σ₅ (Eq. 8).
	Cost translog.Params
	// Weights are the per-seller dataset weights ω₁..ω_m reflecting
	// historical data quality; all must be positive. Only their
	// proportions matter to the allocation rule, but their absolute scale
	// enters the Theorem 5.1 error-bound condition.
	Weights []float64
}

// Validate checks the broker parameters.
func (a Broker) Validate() error {
	if len(a.Weights) == 0 {
		return errors.New("core: broker has no seller weights")
	}
	for i, w := range a.Weights {
		if !(w > 0) || math.IsInf(w, 0) {
			return fmt.Errorf("core: weight ω[%d] must be positive and finite, got %g", i, w)
		}
	}
	return nil
}

// Sellers holds the followers' privacy sensitivities λ₁..λ_m (§4.1.3).
type Sellers struct {
	// Lambda are the privacy sensitivities; all must be positive.
	Lambda []float64
}

// Validate checks the seller parameters.
func (s Sellers) Validate() error {
	if len(s.Lambda) == 0 {
		return errors.New("core: no sellers")
	}
	for i, l := range s.Lambda {
		if !(l > 0) || math.IsInf(l, 0) {
			return fmt.Errorf("core: privacy sensitivity λ[%d] must be positive and finite, got %g", i, l)
		}
	}
	return nil
}

// Game is one transaction's complete parameterization.
//
// Sweeps re-solve thousands of games whose sellers never change; Precompute
// snapshots the seller-side aggregates so those solves skip the O(m) passes
// (see Precompute for the mutation contract).
type Game struct {
	Buyer   Buyer
	Broker  Broker
	Sellers Sellers

	// agg is the seller-aggregate snapshot established by Precompute and
	// dropped by Invalidate / the Set* mutators. Nil means "no snapshot";
	// every path then recomputes from the slices, as before.
	agg *sellerAgg
}

// sellerAgg caches everything Solve needs that depends only on the seller
// side (ω, λ): the Stage 1–2 aggregates and the per-seller √(ωᵢλᵢ) factors
// of the Stage 3 closed form. The first-element pointers and length guard
// against the snapshot outliving a slice replacement (g.Broker.Weights =
// other) or truncation; in-place element writes cannot be detected and must
// go through SetLambda/SetWeight or be followed by Invalidate.
type sellerAgg struct {
	lambdaPtr, weightPtr *float64
	m                    int

	sumInvLambda float64   // Σ 1/λᵢ
	sumSqrtWL    float64   // Σ √(ωⱼ/λⱼ)
	sqrtWL       []float64 // √(ωᵢλᵢ); written only by Precompute, then read-only
}

// Precompute validates the game and snapshots the seller-side aggregates,
// making subsequent Solve calls O(1) in the Stage 1–2 work (Validate and the
// aggregate passes are skipped while the snapshot stays valid). All sums run
// in seller order, so cached and uncached solves are bit-for-bit identical.
//
// Contract: the snapshot survives Clone and any Buyer/Cost mutation (those
// never enter the cached aggregates). Mutating λ or ω must go through
// SetLambda/SetWeight, or be followed by Invalidate — replacing or
// truncating the slices is detected automatically, element writes are not.
func (g *Game) Precompute() error {
	g.agg = nil
	if err := g.Validate(); err != nil {
		return err
	}
	m := g.M()
	a := &sellerAgg{
		lambdaPtr: &g.Sellers.Lambda[0],
		weightPtr: &g.Broker.Weights[0],
		m:         m,
		sqrtWL:    make([]float64, m),
	}
	for _, l := range g.Sellers.Lambda {
		a.sumInvLambda += 1 / l
	}
	for j, w := range g.Broker.Weights {
		a.sumSqrtWL += math.Sqrt(w / g.Sellers.Lambda[j])
		a.sqrtWL[j] = math.Sqrt(w * g.Sellers.Lambda[j])
	}
	g.agg = a
	return nil
}

// Invalidate drops the Precompute snapshot. Call it after writing seller
// fields directly (g.Sellers.Lambda[i] = x) on a precomputed game.
func (g *Game) Invalidate() { g.agg = nil }

// SetLambda sets λᵢ and invalidates the precomputed snapshot.
func (g *Game) SetLambda(i int, v float64) {
	g.Sellers.Lambda[i] = v
	g.agg = nil
}

// SetWeight sets ωᵢ and invalidates the precomputed snapshot.
func (g *Game) SetWeight(i int, v float64) {
	g.Broker.Weights[i] = v
	g.agg = nil
}

// cached returns the Precompute snapshot if it is still valid for the
// game's current slices, nil otherwise.
func (g *Game) cached() *sellerAgg {
	a := g.agg
	if a == nil || a.m == 0 ||
		a.m != len(g.Sellers.Lambda) || a.m != len(g.Broker.Weights) ||
		a.lambdaPtr != &g.Sellers.Lambda[0] || a.weightPtr != &g.Broker.Weights[0] {
		return nil
	}
	return a
}

// Precomputed reports whether a valid Precompute snapshot is live, i.e.
// whether the seller side is already validated and the cheap buyer-only
// revalidation suffices before a solve. Solver backends outside this package
// use it to replicate Solve's validation contract.
func (g *Game) Precomputed() bool { return g.cached() != nil }

// M returns the number of sellers.
func (g *Game) M() int { return len(g.Sellers.Lambda) }

// Validate checks all parameters jointly (weights and sensitivities must
// agree on the seller count).
func (g *Game) Validate() error {
	if err := g.Buyer.Validate(); err != nil {
		return err
	}
	if err := g.Broker.Validate(); err != nil {
		return err
	}
	if err := g.Sellers.Validate(); err != nil {
		return err
	}
	if len(g.Broker.Weights) != len(g.Sellers.Lambda) {
		return fmt.Errorf("core: %d weights for %d sellers", len(g.Broker.Weights), len(g.Sellers.Lambda))
	}
	return nil
}

// Clone returns a deep copy of the game (weights and sensitivities copied).
// A valid Precompute snapshot carries over — the clone's seller data is
// identical — which is what makes cloned sweeps over buyer parameters O(1)
// per solve. The sqrtWL vector is shared read-only between the two games;
// mutating the clone's sellers through SetLambda/SetWeight detaches it.
func (g *Game) Clone() *Game {
	c := &Game{
		Buyer: g.Buyer,
		Broker: Broker{
			Cost:    g.Broker.Cost,
			Weights: append([]float64(nil), g.Broker.Weights...),
		},
		Sellers: Sellers{Lambda: append([]float64(nil), g.Sellers.Lambda...)},
	}
	if a := g.cached(); a != nil {
		ac := *a
		ac.lambdaPtr = &c.Sellers.Lambda[0]
		ac.weightPtr = &c.Broker.Weights[0]
		c.agg = &ac
	}
	return c
}

// SumInvLambda returns S = Σ 1/λᵢ, the aggregate privacy elasticity that the
// Stage 1 and Stage 2 closed forms depend on. O(1) after Precompute.
func (g *Game) SumInvLambda() float64 {
	if a := g.cached(); a != nil {
		return a.sumInvLambda
	}
	var s float64
	for _, l := range g.Sellers.Lambda {
		s += 1 / l
	}
	return s
}

// SumSqrtWeightOverLambda returns Σ √(ωⱼ/λⱼ), the aggregate appearing in the
// Stage 3 closed form (Eq. 20). O(1) after Precompute.
func (g *Game) SumSqrtWeightOverLambda() float64 {
	if a := g.cached(); a != nil {
		return a.sumSqrtWL
	}
	var s float64
	for j, w := range g.Broker.Weights {
		s += math.Sqrt(w / g.Sellers.Lambda[j])
	}
	return s
}
