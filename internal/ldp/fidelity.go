// Package ldp implements the local differential privacy substrate of Share:
// the inverse of the fidelity map between a seller's privacy budget ε and
// the data fidelity τ she offers on the market (Eq. 10 of the paper), and
// the Laplace mechanism each seller applies locally before handing data to
// the broker (§6.1). The Gaussian mechanism is an alternative that no
// binary builds.
//
// In Share every seller is her own curator: she picks τᵢ as her Nash-game
// strategy, converts it to a privacy budget εᵢ via EpsilonForFidelity, and
// perturbs her χᵢ data pieces with an ε-LDP mechanism before sale.
package ldp

import "math"

// MaxEpsilon caps the privacy budget produced by EpsilonForFidelity. The
// fidelity map sends τ → 1 to ε → ∞ (no noise); budgets beyond this cap are
// indistinguishable from no perturbation at float64 precision.
const MaxEpsilon = 1e9

// EpsilonForFidelity inverts Eq. 10: ε = sec(πτ/2) − 1 for τ in [0, 1).
// τ = 1 means "no noise" per the paper; it maps to MaxEpsilon. Values outside
// [0, 1] are clamped.
func EpsilonForFidelity(tau float64) float64 {
	if tau <= 0 {
		return 0
	}
	if tau >= 1 {
		return MaxEpsilon
	}
	eps := 1/math.Cos(math.Pi*tau/2) - 1
	if eps > MaxEpsilon || math.IsNaN(eps) {
		return MaxEpsilon
	}
	return eps
}
