package core

import (
	"errors"
	"fmt"
	"math"

	"share/internal/numeric"
)

// This file implements §5.1.1's mean-field machinery for "complicated cases":
// the alternative privacy-loss form L_i(τᵢ) = λᵢ·χᵢ·τᵢ² for which the paper
// demonstrates the method, the mean-field optimum τᵢ* = 2p^D/(3λᵢ) (Eq. 23),
// the exact per-seller best response of that loss (the quadratic root of
// Eq. 24) solved as a coupled fixed point ("direct derivation" comparator),
// and the Theorem 5.1 error bounds with the ω-scaling precondition.

// MeanFieldTau returns the sellers' approximate Nash equilibrium under the
// alternative loss, treating the weighted mean fidelity τ̄ = Σωⱼτⱼ/m as an
// exogenous mean-field state (Eq. 23): τᵢ* = 2p^D/(3λᵢ), clamped to [0, 1].
func (g *Game) MeanFieldTau(pD float64) []float64 {
	return g.MeanFieldTauInto(pD, nil)
}

// MeanFieldTauInto is MeanFieldTau writing into dst, as Stage3TauInto does:
// it returns dst[:m], or a fresh slice when dst's capacity is short of m.
func (g *Game) MeanFieldTauInto(pD float64, dst []float64) []float64 {
	tau := resize(dst, g.M())
	if pD <= 0 {
		clear(tau)
		return tau
	}
	for i, l := range g.Sellers.Lambda {
		tau[i] = math.Min(1, 2*pD/(3*l))
	}
	return tau
}

// MeanFieldState returns τ̄ = Σᵢωᵢτᵢ/m (Eq. 21), the mean-field aggregate.
func (g *Game) MeanFieldState(tau []float64) float64 {
	var s float64
	for i, t := range tau {
		s += g.Broker.Weights[i] * t
	}
	return s / float64(g.M())
}

// mfBestResponse returns seller i's exact best response under the
// alternative loss given the rivals' weighted fidelity mass
// Σ₋ᵢ = Σ_{j≠i} ωⱼτⱼ (Eq. 24):
//
//	τᵢ* = [p^Dωᵢ − 3λᵢΣ₋ᵢ + √((3λᵢΣ₋ᵢ − p^Dωᵢ)² + 16·p^Dλᵢωᵢ·Σ₋ᵢ)] / (4λᵢωᵢ),
//
// clamped to [0, 1]. A zero rival mass degenerates to the monopoly case,
// where χᵢ = N regardless of τᵢ and the FOC gives τᵢ = p^D/(2λᵢ)... — in
// fact with Σ₋ᵢ = 0 Eq. 24 reduces to τᵢ = p^D·ωᵢ·2/(4λᵢωᵢ) = p^D/(2λᵢ).
func (g *Game) mfBestResponse(i int, pD, rivalMass float64) float64 {
	wi, li := g.Broker.Weights[i], g.Sellers.Lambda[i]
	if rivalMass <= 0 {
		return numeric.Clamp(pD/(2*li), 0, 1)
	}
	a := 3*li*rivalMass - pD*wi
	disc := a*a + 16*pD*li*wi*rivalMass
	t := (pD*wi - 3*li*rivalMass + math.Sqrt(disc)) / (4 * li * wi)
	return numeric.Clamp(t, 0, 1)
}

// DirectTauMF computes the exact inner Nash equilibrium under the
// alternative loss by damped fixed-point iteration on the coupled best
// responses of Eq. 24 — the "direct derivation" Theorem 5.1 compares the
// mean-field approximation against. It starts from the mean-field profile
// and iterates until the fidelity vector is stable to within tol (pass 0
// for 1e-12).
func (g *Game) DirectTauMF(pD, tol float64, maxIter int) ([]float64, error) {
	if tol <= 0 {
		tol = 1e-12
	}
	if maxIter <= 0 {
		maxIter = 500
	}
	m := g.M()
	tau := g.MeanFieldTau(pD)
	if pD <= 0 {
		return tau, nil
	}
	var total float64
	for i, t := range tau {
		total += g.Broker.Weights[i] * t
	}
	const damp = 0.7
	for iter := 0; iter < maxIter; iter++ {
		var maxDelta float64
		for i := 0; i < m; i++ {
			rival := total - g.Broker.Weights[i]*tau[i]
			br := g.mfBestResponse(i, pD, rival)
			next := (1-damp)*tau[i] + damp*br
			delta := math.Abs(next - tau[i])
			if delta > maxDelta {
				maxDelta = delta
			}
			total += g.Broker.Weights[i] * (next - tau[i])
			tau[i] = next
		}
		if maxDelta < tol {
			return tau, nil
		}
	}
	return nil, errors.New("core: mean-field direct derivation did not converge")
}

// Theorem51Bounds returns the error interval of Theorem 5.1 for m sellers:
// (−1/(6m²), 1/m − 2/(3m²)).
func Theorem51Bounds(m int) (lo, hi float64) {
	fm := float64(m)
	return -1 / (6 * fm * fm), 1/fm - 2/(3*fm*fm)
}

// ScaleWeightsForBound rescales the broker's weights in place so that the
// Theorem 5.1 precondition ωᵢ/λᵢ ≤ 1/(p^D·m²) holds with equality for the
// tightest seller. Only the weights' proportions matter to the allocation
// rule (the paper notes they may be scaled arbitrarily), so this preserves
// market behaviour while activating the error guarantee.
func (g *Game) ScaleWeightsForBound(pD float64) error {
	if pD <= 0 {
		return fmt.Errorf("core: cannot scale weights for non-positive data price %g", pD)
	}
	m := float64(g.M())
	var worst float64
	for i, w := range g.Broker.Weights {
		r := w / g.Sellers.Lambda[i]
		if r > worst {
			worst = r
		}
	}
	if worst <= 0 {
		return errors.New("core: degenerate weights")
	}
	target := 1 / (pD * m * m)
	scale := target / worst
	for i := range g.Broker.Weights {
		g.Broker.Weights[i] *= scale
	}
	g.Invalidate()
	return nil
}

// BoundCondition reports whether the Theorem 5.1 precondition
// ωᵢ/λᵢ ≤ 1/(p^D·m²) holds for every seller.
func (g *Game) BoundCondition(pD float64) bool {
	m := float64(g.M())
	limit := 1 / (pD * m * m)
	for i, w := range g.Broker.Weights {
		if w/g.Sellers.Lambda[i] > limit*(1+1e-12) {
			return false
		}
	}
	return true
}
