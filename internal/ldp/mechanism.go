package ldp

import (
	"fmt"
	"math"
	"math/rand"

	"share/internal/stat"
)

// Mechanism perturbs a numeric record in place under ε-local differential
// privacy. Implementations are stateless; randomness comes from the supplied
// rng so experiments stay reproducible.
type Mechanism interface {
	// Perturb privatizes the record in place under budget eps and
	// allocates nothing. The record's values are assumed to lie within the
	// bounds the mechanism was constructed with; a caller that needs the
	// clean record afterwards perturbs a copy.
	Perturb(rng *rand.Rand, record []float64, eps float64)
}

// Bounds describe the per-attribute value ranges a mechanism must assume to
// calibrate its noise (the L1/L∞ sensitivity of the identity query).
type Bounds struct {
	Lo []float64
	Hi []float64
}

// NewBounds builds per-attribute bounds; lo and hi must have equal length and
// satisfy lo[j] < hi[j] for every attribute j.
func NewBounds(lo, hi []float64) (Bounds, error) {
	if len(lo) != len(hi) {
		return Bounds{}, fmt.Errorf("ldp: bounds length mismatch: %d vs %d", len(lo), len(hi))
	}
	for j := range lo {
		if !(lo[j] < hi[j]) {
			return Bounds{}, fmt.Errorf("ldp: attribute %d has empty range [%g, %g]", j, lo[j], hi[j])
		}
	}
	return Bounds{Lo: lo, Hi: hi}, nil
}

// Width returns hi[j]−lo[j] for attribute j.
func (b Bounds) Width(j int) float64 { return b.Hi[j] - b.Lo[j] }

// Attrs returns the number of attributes the bounds describe.
func (b Bounds) Attrs() int { return len(b.Lo) }

// LaplaceMechanism adds Laplace(0, Δ/ε) noise to each attribute, where Δ is
// that attribute's range width. With the budget split evenly across k
// attributes, each attribute receives ε/k, giving ε-LDP for the whole record
// by sequential composition. This is the mechanism the paper's experiments
// use (§6.1).
type LaplaceMechanism struct {
	bounds Bounds
}

// NewLaplace constructs a Laplace mechanism calibrated to the given bounds.
func NewLaplace(b Bounds) *LaplaceMechanism { return &LaplaceMechanism{bounds: b} }

// Attrs reports the attribute count the mechanism is calibrated for.
func (l *LaplaceMechanism) Attrs() int { return l.bounds.Attrs() }

// Perturb implements Mechanism. eps <= 0 degrades to uniformly random values
// within bounds (total distortion), matching the paper's "τ = 0 means random
// noise" convention.
func (l *LaplaceMechanism) Perturb(rng *rand.Rand, record []float64, eps float64) {
	if eps <= 0 {
		for j := range record {
			record[j] = stat.Uniform(rng, l.bounds.Lo[j], l.bounds.Hi[j])
		}
		return
	}
	perAttr := eps / float64(len(record))
	for j, v := range record {
		scale := l.bounds.Width(j) / perAttr
		record[j] = v + stat.Laplace(rng, 0, scale)
	}
}

// GaussianMechanism adds N(0, σ²) noise with σ = Δ·√(2·ln(1.25/δ))/ε,
// providing (ε, δ)-LDP per attribute. It is offered as an alternative
// mechanism (§3.1 lists it among the widely used ones); no binary builds it.
type GaussianMechanism struct {
	bounds Bounds
	delta  float64
}

// NewGaussian constructs a Gaussian mechanism with failure probability delta
// in (0, 1).
func NewGaussian(b Bounds, delta float64) (*GaussianMechanism, error) {
	if delta <= 0 || delta >= 1 {
		return nil, fmt.Errorf("ldp: delta must be in (0,1), got %g", delta)
	}
	return &GaussianMechanism{bounds: b, delta: delta}, nil
}

// Attrs reports the attribute count the mechanism is calibrated for.
func (g *GaussianMechanism) Attrs() int { return g.bounds.Attrs() }

// Perturb implements Mechanism.
func (g *GaussianMechanism) Perturb(rng *rand.Rand, record []float64, eps float64) {
	if eps <= 0 {
		for j := range record {
			record[j] = stat.Uniform(rng, g.bounds.Lo[j], g.bounds.Hi[j])
		}
		return
	}
	perAttr := eps / float64(len(record))
	c := math.Sqrt(2 * math.Log(1.25/g.delta))
	for j, v := range record {
		sigma := g.bounds.Width(j) * c / perAttr
		record[j] = v + stat.Gaussian(rng, 0, sigma)
	}
}

// PiecewiseMechanism implements the piecewise mechanism for one-dimensional
// numeric values (Wang et al.), an ε-LDP mechanism with bounded output and
// lower variance than Laplace at moderate ε. Values are normalized to [-1, 1]
// per attribute before perturbation and de-normalized after. No binary
// builds it.
type PiecewiseMechanism struct {
	bounds Bounds
}

// NewPiecewise constructs a piecewise mechanism over the given bounds.
func NewPiecewise(b Bounds) *PiecewiseMechanism { return &PiecewiseMechanism{bounds: b} }

// Attrs reports the attribute count the mechanism is calibrated for.
func (p *PiecewiseMechanism) Attrs() int { return p.bounds.Attrs() }

// Perturb implements Mechanism.
func (p *PiecewiseMechanism) Perturb(rng *rand.Rand, record []float64, eps float64) {
	if eps <= 0 {
		for j := range record {
			record[j] = stat.Uniform(rng, p.bounds.Lo[j], p.bounds.Hi[j])
		}
		return
	}
	perAttr := eps / float64(len(record))
	for j, v := range record {
		// Normalize to t ∈ [-1, 1].
		lo, w := p.bounds.Lo[j], p.bounds.Width(j)
		t := 2*(v-lo)/w - 1
		t = math.Max(-1, math.Min(1, t))
		tp := perturbPiecewise(rng, t, perAttr)
		// De-normalize. tp lies in [-C, C] with C >= 1; keep it as-is so
		// the output stays unbiased.
		record[j] = lo + (tp+1)*w/2
	}
}

// perturbPiecewise perturbs t ∈ [-1,1] under ε-LDP with the piecewise
// mechanism, returning a value in [-C, C] where C = (e^{ε/2}+1)/(e^{ε/2}−1).
func perturbPiecewise(rng *rand.Rand, t, eps float64) float64 {
	expHalf := math.Exp(eps / 2)
	c := (expHalf + 1) / (expHalf - 1)
	l := (c+1)/2*t - (c-1)/2
	r := l + c - 1
	if rng.Float64() < expHalf/(expHalf+1) {
		// High-probability region [l, r] around the true value.
		return stat.Uniform(rng, l, r)
	}
	// Low-probability tails.
	leftWidth := l + c
	rightWidth := c - r
	total := leftWidth + rightWidth
	if total <= 0 {
		return stat.Uniform(rng, -c, c)
	}
	if rng.Float64() < leftWidth/total {
		return stat.Uniform(rng, -c, l)
	}
	return stat.Uniform(rng, r, c)
}
