// Package translog implements the transcendental logarithmic (translog) cost
// function the broker uses to model manufacturing cost (Eq. 8, after
// Christensen, Jorgenson & Lau 1975), plus least-squares fitting of its six
// σ parameters from observed (N, v, cost) records — the "parameter fitting
// from historical trading records" extension the paper's conclusion calls
// out as future work.
package translog

import (
	"errors"
	"fmt"
	"math"

	"share/internal/linalg"
)

// Params holds the six translog coefficients σ₀..σ₅ of Eq. 8.
type Params struct {
	Sigma0 float64 // constant
	Sigma1 float64 // coefficient of ln N
	Sigma2 float64 // coefficient of ln v
	Sigma3 float64 // coefficient of ½·ln²N
	Sigma4 float64 // coefficient of ½·ln²v
	Sigma5 float64 // coefficient of ln N · ln v
}

// PaperDefaults returns the broker cost parameters used throughout the
// paper's experiments (§6.1): σ₀ = 1e−3, σ₁ = −2, σ₂ = −3, σ₃ = 1e−3,
// σ₄ = 2e−3, σ₅ = 1e−3.
func PaperDefaults() Params {
	return Params{
		Sigma0: 1e-3,
		Sigma1: -2,
		Sigma2: -3,
		Sigma3: 1e-3,
		Sigma4: 2e-3,
		Sigma5: 1e-3,
	}
}

// Cost evaluates Eq. 8:
//
//	C(N, v) = exp(σ₀ + σ₁·lnN + σ₂·lnv + ½σ₃·ln²N + ½σ₄·ln²v + σ₅·lnN·lnv).
//
// It returns an error for non-positive N or v, where the logarithms are
// undefined.
func (p Params) Cost(n float64, v float64) (float64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("translog: data size N must be positive, got %g", n)
	}
	if v <= 0 {
		return 0, fmt.Errorf("translog: performance v must be positive, got %g", v)
	}
	ln, lv := math.Log(n), math.Log(v)
	exponent := p.Sigma0 + p.Sigma1*ln + p.Sigma2*lv +
		0.5*p.Sigma3*ln*ln + 0.5*p.Sigma4*lv*lv + p.Sigma5*ln*lv
	return math.Exp(exponent), nil
}

// MustCost is Cost for callers with pre-validated inputs; it panics on error.
func (p Params) MustCost(n, v float64) float64 {
	c, err := p.Cost(n, v)
	if err != nil {
		panic(err)
	}
	return c
}

// Observation is one historical manufacturing record: the data size and
// performance of a produced product and the cost the broker incurred.
type Observation struct {
	N    float64
	V    float64
	Cost float64
}

// Fit recovers translog parameters from observations by ordinary least
// squares in log space: lnC is linear in the six basis terms
// (1, lnN, lnv, ½ln²N, ½ln²v, lnN·lnv). At least six observations with
// positive N, v and cost are required, and the (N, v) design must have
// enough spread to identify all six coefficients.
func Fit(obs []Observation) (Params, error) {
	if len(obs) < 6 {
		return Params{}, fmt.Errorf("translog: need at least 6 observations to fit 6 parameters, got %d", len(obs))
	}
	design := linalg.NewMatrix(len(obs), 6)
	target := make([]float64, len(obs))
	for i, o := range obs {
		if o.N <= 0 || o.V <= 0 || o.Cost <= 0 {
			return Params{}, fmt.Errorf("translog: observation %d has non-positive field (N=%g, v=%g, cost=%g)", i, o.N, o.V, o.Cost)
		}
		ln, lv := math.Log(o.N), math.Log(o.V)
		row := design.Row(i)
		row[0] = 1
		row[1] = ln
		row[2] = lv
		row[3] = 0.5 * ln * ln
		row[4] = 0.5 * lv * lv
		row[5] = ln * lv
		target[i] = math.Log(o.Cost)
	}
	beta, err := linalg.LeastSquares(design, target)
	if err != nil {
		return Params{}, fmt.Errorf("translog: fitting: %w", err)
	}
	for _, b := range beta {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return Params{}, errors.New("translog: fit produced non-finite coefficients (degenerate design)")
		}
	}
	return Params{
		Sigma0: beta[0], Sigma1: beta[1], Sigma2: beta[2],
		Sigma3: beta[3], Sigma4: beta[4], Sigma5: beta[5],
	}, nil
}

// FitError returns the root-mean-square error of the fitted parameters on
// the observations, in log-cost space.
func FitError(p Params, obs []Observation) float64 {
	if len(obs) == 0 {
		return 0
	}
	var ss float64
	for _, o := range obs {
		c, err := p.Cost(o.N, o.V)
		if err != nil || c <= 0 || o.Cost <= 0 {
			continue
		}
		d := math.Log(c) - math.Log(o.Cost)
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(obs)))
}
