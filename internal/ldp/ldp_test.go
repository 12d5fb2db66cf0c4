package ldp

import (
	"math"
	"testing"
	"testing/quick"

	"share/internal/stat"
)

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

func TestValidateEpsilon(t *testing.T) {
	if err := ValidateEpsilon(1.0); err != nil {
		t.Errorf("ValidateEpsilon(1) = %v", err)
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		if err := ValidateEpsilon(bad); err == nil {
			t.Errorf("ValidateEpsilon(%v) accepted", bad)
		}
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

func TestPiecewiseMechanismUnbiasedAndBounded(t *testing.T) {
	rng := stat.NewRand(21)
	b, _ := NewBounds([]float64{0}, []float64{10})
	mech := NewPiecewise(b)
	const n = 200_000
	eps := 2.0
	truth := 7.0
	var sum float64
	expHalf := math.Exp(eps / 2)
	c := (expHalf + 1) / (expHalf - 1)
	// Output (normalized) lies in [-C, C] → denormalized in a known band.
	loBand := 0 + (-c+1)*10/2
	hiBand := 0 + (c+1)*10/2
	for i := 0; i < n; i++ {
		rec := []float64{truth}
		mech.Perturb(rng, rec, eps)
		out := rec[0]
		if out < loBand-1e-9 || out > hiBand+1e-9 {
			t.Fatalf("piecewise output %v outside [%v, %v]", out, loBand, hiBand)
		}
		sum += out
	}
	if mean := sum / n; math.Abs(mean-truth) > 0.15 {
		t.Errorf("piecewise mean = %v, want %v (unbiased)", mean, truth)
	}
}

// TestRandomizedResponseSatisfiesLDP empirically verifies the ε-LDP
// inequality P[A(y)=z] ≤ e^ε·P[A(y')=z] for the binary mechanism, the one
// mechanism whose output distribution we can estimate exactly.
func TestRandomizedResponseSatisfiesLDP(t *testing.T) {
	rng := stat.NewRand(33)
	eps := 1.2
	const n = 400_000
	trueCount := 0 // P[report true | input true]
	for i := 0; i < n; i++ {
		if RandomizedResponse(rng, true, eps) {
			trueCount++
		}
	}
	pTrueGivenTrue := float64(trueCount) / n
	pTrueGivenFalse := 1 - pTrueGivenTrue // by symmetry of the mechanism
	ratio := pTrueGivenTrue / pTrueGivenFalse
	if ratio > math.Exp(eps)*1.05 {
		t.Errorf("LDP ratio %v exceeds e^ε = %v", ratio, math.Exp(eps))
	}
	// The mechanism should actually use its budget (ratio ≈ e^ε).
	if ratio < math.Exp(eps)*0.9 {
		t.Errorf("LDP ratio %v far below e^ε = %v (over-noising)", ratio, math.Exp(eps))
	}
}

func TestExponentialMechanismPrefersHighScores(t *testing.T) {
	rng := stat.NewRand(8)
	scores := []float64{0, 0, 5, 0}
	counts := make([]int, 4)
	for i := 0; i < 20_000; i++ {
		counts[Exponential(rng, scores, 4, 1)]++
	}
	if counts[2] < counts[0]+counts[1]+counts[3] {
		t.Errorf("exponential mechanism did not favor the high-score index: %v", counts)
	}
	if got := Exponential(rng, nil, 1, 1); got != -1 {
		t.Errorf("Exponential on empty scores = %d, want -1", got)
	}
}

func TestExponentialMechanismUniformAtZeroEpsilon(t *testing.T) {
	rng := stat.NewRand(15)
	scores := []float64{0, 10}
	hi := 0
	const n = 50_000
	for i := 0; i < n; i++ {
		if Exponential(rng, scores, 0, 1) == 1 {
			hi++
		}
	}
	frac := float64(hi) / n
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("ε=0 exponential mechanism selection frequency = %v, want 0.5", frac)
	}
}
