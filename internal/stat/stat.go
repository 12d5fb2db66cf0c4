// Package stat provides the random sampling used across Share: Laplace
// noise for the LDP mechanism, Gaussian noise for the data augmentation,
// and seeded uniform generators and permutations for reproducible
// experiments.
//
// All randomness flows through *rand.Rand instances supplied by the caller so
// that every experiment in the paper reproduction is deterministic under a
// fixed seed.
package stat

import (
	"math"
	"math/rand"
)

// NewRand returns a seeded *rand.Rand. Centralizing construction here keeps
// the door open for swapping the source (e.g. to math/rand/v2) in one place.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Laplace draws a sample from the Laplace distribution with location mu and
// scale b > 0 by inverse-CDF sampling.
func Laplace(rng *rand.Rand, mu, b float64) float64 {
	// u uniform on (-1/2, 1/2); the open interval avoids log(0).
	u := rng.Float64() - 0.5
	for u == 0.5 || u == -0.5 {
		u = rng.Float64() - 0.5
	}
	return mu - b*math.Copysign(math.Log(1-2*math.Abs(u)), u)
}

// Gaussian draws a sample from N(mu, sigma²).
func Gaussian(rng *rand.Rand, mu, sigma float64) float64 {
	return mu + sigma*rng.NormFloat64()
}

// Uniform draws a sample from the uniform distribution on [lo, hi).
func Uniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo + (hi-lo)*rng.Float64()
}

// UniformOpen draws from the open interval (lo, hi), never returning either
// endpoint. The paper draws privacy sensitivities λᵢ from (0, 1); an exact
// zero would make the seller's loss vanish and 1/λ diverge.
func UniformOpen(rng *rand.Rand, lo, hi float64) float64 {
	for {
		v := Uniform(rng, lo, hi)
		if v != lo {
			return v
		}
	}
}

// Shuffle permutes the ints in place using rng (Fisher-Yates).
func Shuffle(rng *rand.Rand, xs []int) {
	for i := len(xs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// Perm returns a random permutation of [0, n) using rng.
func Perm(rng *rand.Rand, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	Shuffle(rng, p)
	return p
}
