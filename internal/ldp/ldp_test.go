package ldp

import (
	"math"
	"testing"
	"testing/quick"

	"share/internal/stat"
)

// Fidelity returns τ = (2/π)·arcsec(ε+1) for ε >= 0 (Eq. 10), the forward
// map that EpsilonForFidelity inverts. The market only ever needs the
// inverse, so the forward map lives here, where the tests check the
// inverse against it. The map satisfies the Inada-style conditions the paper requires: Fidelity(0) = 0,
// it is strictly increasing, strictly concave, and approaches (but never
// exceeds) 1 as ε → ∞.
func Fidelity(eps float64) float64 {
	if eps < 0 {
		return 0
	}
	if math.IsInf(eps, 1) {
		return 1
	}
	// arcsec(x) = arccos(1/x) for x >= 1.
	return 2 / math.Pi * math.Acos(1/(eps+1))
}

func TestFidelityEndpoints(t *testing.T) {
	if got := Fidelity(0); got != 0 {
		t.Errorf("Fidelity(0) = %v, want 0 (pure noise)", got)
	}
	if got := Fidelity(math.Inf(1)); got != 1 {
		t.Errorf("Fidelity(∞) = %v, want 1 (no noise)", got)
	}
	if got := Fidelity(-1); got != 0 {
		t.Errorf("Fidelity(-1) = %v, want 0 (clamped)", got)
	}
}

func TestFidelityKnownValue(t *testing.T) {
	// arcsec(2) = π/3, so Fidelity(1) = (2/π)(π/3) = 2/3.
	if got := Fidelity(1); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("Fidelity(1) = %v, want 2/3", got)
	}
}

// Property: the Inada-style conditions of Eq. 10 — Fidelity is within [0,1),
// strictly increasing, and concave (increments shrink).
func TestFidelityShapeProperty(t *testing.T) {
	prop := func(raw float64) bool {
		eps := math.Mod(math.Abs(raw), 50)
		const h = 1e-4
		f0, f1, f2 := Fidelity(eps), Fidelity(eps+h), Fidelity(eps+2*h)
		if f0 < 0 || f0 >= 1 {
			return false
		}
		if f1 <= f0 { // strictly increasing
			return false
		}
		return (f2 - f1) <= (f1-f0)+1e-12 // concave
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: EpsilonForFidelity inverts Fidelity on [0, 1).
func TestFidelityRoundTripProperty(t *testing.T) {
	prop := func(raw float64) bool {
		tau := math.Mod(math.Abs(raw), 0.999)
		eps := EpsilonForFidelity(tau)
		back := Fidelity(eps)
		return math.Abs(back-tau) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestEpsilonForFidelityEdges(t *testing.T) {
	if got := EpsilonForFidelity(0); got != 0 {
		t.Errorf("EpsilonForFidelity(0) = %v, want 0", got)
	}
	if got := EpsilonForFidelity(1); got != MaxEpsilon {
		t.Errorf("EpsilonForFidelity(1) = %v, want MaxEpsilon", got)
	}
	if got := EpsilonForFidelity(-0.5); got != 0 {
		t.Errorf("EpsilonForFidelity(-0.5) = %v, want 0 (clamped)", got)
	}
	if got := EpsilonForFidelity(1.5); got != MaxEpsilon {
		t.Errorf("EpsilonForFidelity(1.5) = %v, want MaxEpsilon (clamped)", got)
	}
}

func TestNewBoundsValidation(t *testing.T) {
	if _, err := NewBounds([]float64{0, 0}, []float64{1}); err == nil {
		t.Error("NewBounds accepted mismatched lengths")
	}
	if _, err := NewBounds([]float64{1}, []float64{1}); err == nil {
		t.Error("NewBounds accepted an empty range")
	}
	b, err := NewBounds([]float64{0, -5}, []float64{10, 5})
	if err != nil {
		t.Fatalf("NewBounds: %v", err)
	}
	if b.Width(0) != 10 || b.Width(1) != 10 || b.Attrs() != 2 {
		t.Error("Bounds accessors wrong")
	}
}

func TestLaplaceMechanismUnbiased(t *testing.T) {
	rng := stat.NewRand(42)
	b, _ := NewBounds([]float64{0}, []float64{10})
	mech := NewLaplace(b)
	const n = 100_000
	var sum float64
	for i := 0; i < n; i++ {
		out := []float64{4}
		mech.Perturb(rng, out, 2.0)
		sum += out[0]
	}
	if mean := sum / n; math.Abs(mean-4) > 0.1 {
		t.Errorf("Laplace mechanism mean = %v, want 4 (unbiased)", mean)
	}
}

func TestLaplaceMechanismNoiseShrinksWithEpsilon(t *testing.T) {
	rng := stat.NewRand(1)
	b, _ := NewBounds([]float64{0}, []float64{1})
	mech := NewLaplace(b)
	mad := func(eps float64) float64 {
		var s float64
		const n = 20_000
		for i := 0; i < n; i++ {
			out := []float64{0.5}
			mech.Perturb(rng, out, eps)
			s += math.Abs(out[0] - 0.5)
		}
		return s / n
	}
	low, high := mad(0.5), mad(8)
	if low <= high {
		t.Errorf("noise should shrink with ε: MAD(ε=0.5)=%v vs MAD(ε=8)=%v", low, high)
	}
}

func TestLaplaceMechanismZeroEpsilonIsUniform(t *testing.T) {
	rng := stat.NewRand(9)
	b, _ := NewBounds([]float64{0}, []float64{10})
	mech := NewLaplace(b)
	for i := 0; i < 1000; i++ {
		out := []float64{5}
		mech.Perturb(rng, out, 0)
		if out[0] < 0 || out[0] >= 10 {
			t.Fatalf("ε=0 output %v outside bounds", out[0])
		}
	}
}

func TestGaussianMechanism(t *testing.T) {
	b, _ := NewBounds([]float64{0}, []float64{1})
	if _, err := NewGaussian(b, 0); err == nil {
		t.Error("NewGaussian accepted δ=0")
	}
	if _, err := NewGaussian(b, 1); err == nil {
		t.Error("NewGaussian accepted δ=1")
	}
	mech, err := NewGaussian(b, 1e-5)
	if err != nil {
		t.Fatalf("NewGaussian: %v", err)
	}
	rng := stat.NewRand(3)
	var sum float64
	const n = 50_000
	for i := 0; i < n; i++ {
		out := []float64{0.3}
		mech.Perturb(rng, out, 4)
		sum += out[0]
	}
	if mean := sum / n; math.Abs(mean-0.3) > 0.05 {
		t.Errorf("Gaussian mechanism mean = %v, want 0.3", mean)
	}
}
