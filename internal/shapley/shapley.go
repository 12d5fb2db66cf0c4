// Package shapley computes Shapley values (Def. 3.2 of the paper) for
// arbitrary coalition utility functions. Share uses it twice: to score
// individual data points when building the quality-sorted seller partition
// (§6.1), and to measure each seller's contribution to the trained data
// product so the broker can update dataset weights after a transaction
// (ω' = 0.2·ω + 0.8·SV, §5.2).
//
// Exact computation enumerates all 2^(m−1) marginal coalitions and is
// feasible only for small player counts; the Monte Carlo permutation
// estimator of Castro, Gómez & Tejada (2009) scales to the thousands of
// players the efficiency experiments require, and the truncated variant
// stops scanning a permutation once the running coalition's utility is
// within tolerance of the grand coalition's.
package shapley

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"share/internal/stat"
)

// Utility evaluates a coalition, given as a set of player indices in
// ascending order. Implementations must be deterministic for a fixed
// coalition within one Shapley computation; the empty coalition must be
// valid.
type Utility func(coalition []int) float64

// ErrTooManyPlayers reports an Exact call whose player count would require
// more than 2^30 coalition evaluations.
var ErrTooManyPlayers = errors.New("shapley: too many players for exact computation (max 30)")

// Exact computes exact Shapley values for m players by full subset
// enumeration, evaluating the utility once per subset (2^m evaluations) and
// distributing marginals per Def. 3.2. m must be at most 30.
func Exact(m int, u Utility) ([]float64, error) {
	if m <= 0 {
		return nil, fmt.Errorf("shapley: invalid player count %d", m)
	}
	if m > 30 {
		return nil, ErrTooManyPlayers
	}
	// Cache every subset's utility keyed by bitmask.
	vals := make([]float64, 1<<uint(m))
	buf := make([]int, 0, m)
	for mask := 0; mask < len(vals); mask++ {
		buf = buf[:0]
		for i := 0; i < m; i++ {
			if mask&(1<<uint(i)) != 0 {
				buf = append(buf, i)
			}
		}
		vals[mask] = u(buf)
	}
	// SVᵢ = Σ_{S ∌ i} |S|!·(m−1−|S|)!/m! · (v(S∪{i}) − v(S)).
	fact := make([]float64, m+1)
	fact[0] = 1
	for i := 1; i <= m; i++ {
		fact[i] = fact[i-1] * float64(i)
	}
	sv := make([]float64, m)
	for i := 0; i < m; i++ {
		bit := 1 << uint(i)
		for mask := 0; mask < len(vals); mask++ {
			if mask&bit != 0 {
				continue
			}
			s := bits.OnesCount(uint(mask))
			w := fact[s] * fact[m-1-s] / fact[m]
			sv[i] += w * (vals[mask|bit] - vals[mask])
		}
	}
	return sv, nil
}

// MonteCarlo estimates Shapley values with the permutation-sampling
// estimator: for each of `permutations` random orderings it scans players in
// order, crediting each with the marginal utility of joining the running
// coalition. The estimate is unbiased; its standard error shrinks as
// 1/√permutations. The paper's experiments use 100 permutations.
func MonteCarlo(m int, u Utility, permutations int, rng *rand.Rand) ([]float64, error) {
	return monteCarlo(m, u, permutations, rng, math.Inf(1))
}

// TruncatedMonteCarlo is MonteCarlo with per-permutation truncation: once the
// running coalition's utility is within tol of the grand coalition's, all
// remaining players in the permutation are credited zero marginal and the
// (expensive) utility evaluations are skipped. This is the standard
// Truncated MC Shapley speedup and is what makes the m = 10,000 efficiency
// experiments tractable.
func TruncatedMonteCarlo(m int, u Utility, permutations int, tol float64, rng *rand.Rand) ([]float64, error) {
	if tol < 0 {
		tol = 0
	}
	return monteCarlo(m, u, permutations, rng, tol)
}

func monteCarlo(m int, u Utility, permutations int, rng *rand.Rand, tol float64) ([]float64, error) {
	if m <= 0 {
		return nil, fmt.Errorf("shapley: invalid player count %d", m)
	}
	if permutations <= 0 {
		return nil, fmt.Errorf("shapley: invalid permutation count %d", permutations)
	}
	if rng == nil {
		return nil, errors.New("shapley: nil random source")
	}
	var grand float64
	truncating := !math.IsInf(tol, 1)
	if truncating {
		full := make([]int, m)
		for i := range full {
			full[i] = i
		}
		grand = u(full)
	}
	empty := u(nil)
	sv := make([]float64, m)
	coalition := make([]int, 0, m)
	sorted := make([]int, 0, m)
	for p := 0; p < permutations; p++ {
		perm := stat.Perm(rng, m)
		coalition = coalition[:0]
		prev := empty
		done := false
		for _, player := range perm {
			if done {
				// Within tolerance of the grand coalition: remaining
				// marginals are credited zero.
				continue
			}
			coalition = append(coalition, player)
			sorted = sorted[:len(coalition)]
			copy(sorted, coalition)
			insertionSort(sorted)
			cur := u(sorted)
			sv[player] += cur - prev
			prev = cur
			if truncating && math.Abs(grand-cur) <= tol {
				done = true
			}
		}
	}
	inv := 1 / float64(permutations)
	for i := range sv {
		sv[i] *= inv
	}
	return sv, nil
}

// insertionSort sorts small int slices in place; coalition prefixes are
// nearly sorted between iterations so this beats sort.Ints here.
func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// Normalize converts Shapley values into market weights: positive, summing
// to 1, and preserving the values' relative ordering and spread. It shifts
// the values so the minimum lands at a small positive offset (1% of the
// spread) rather than flooring, because near-equilibrium fidelities are low
// and per-seller utilities cluster near zero — a hard floor would collapse
// every round's valuation to the uniform distribution and freeze the
// broker's weight learning (§5.2). Degenerate inputs (all equal, or empty)
// yield the uniform distribution.
func Normalize(sv []float64) []float64 {
	if len(sv) == 0 {
		return nil
	}
	lo, hi := sv[0], sv[0]
	for _, v := range sv[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	out := make([]float64, len(sv))
	spread := hi - lo
	if spread <= 0 {
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return out
	}
	offset := 0.01 * spread
	var total float64
	for i, v := range sv {
		out[i] = v - lo + offset
		total += out[i]
	}
	for i := range out {
		out[i] /= total
	}
	return out
}
