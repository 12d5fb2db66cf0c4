package regress

import (
	"math"
	"testing"

	"share/internal/dataset"
	"share/internal/stat"
)

func TestFitRidgeZeroAlphaEqualsOLS(t *testing.T) {
	d := linearData(300, 30, 0.5)
	ols, err := Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	ridge, err := FitRidge(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ols.Intercept-ridge.Intercept) > 1e-9 {
		t.Errorf("intercepts differ: %v vs %v", ols.Intercept, ridge.Intercept)
	}
	for j := range ols.Coef {
		if math.Abs(ols.Coef[j]-ridge.Coef[j]) > 1e-9 {
			t.Errorf("coef[%d] differs: %v vs %v", j, ols.Coef[j], ridge.Coef[j])
		}
	}
}

func TestFitRidgeSmallAlphaNearOLS(t *testing.T) {
	d := linearData(500, 31, 0.3)
	ols, _ := Fit(d)
	ridge, err := FitRidge(d, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	for j := range ols.Coef {
		if math.Abs(ols.Coef[j]-ridge.Coef[j]) > 1e-6*(1+math.Abs(ols.Coef[j])) {
			t.Errorf("coef[%d]: %v vs %v", j, ols.Coef[j], ridge.Coef[j])
		}
	}
}

func TestFitRidgeShrinksCoefficients(t *testing.T) {
	d := linearData(200, 32, 1)
	small, _ := FitRidge(d, 0.1)
	large, err := FitRidge(d, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	normSmall := math.Abs(small.Coef[0]) + math.Abs(small.Coef[1])
	normLarge := math.Abs(large.Coef[0]) + math.Abs(large.Coef[1])
	if normLarge >= normSmall {
		t.Errorf("large α should shrink: ‖β‖ %v vs %v", normLarge, normSmall)
	}
	// At huge α, the model predicts ~the mean everywhere.
	var yMean float64
	for _, y := range d.Y {
		yMean += y
	}
	yMean /= float64(d.Len())
	if math.Abs(large.Intercept-yMean) > 0.5 {
		t.Errorf("heavily shrunk intercept = %v, want ≈ ȳ = %v", large.Intercept, yMean)
	}
}

func TestFitRidgeHandlesCollinearity(t *testing.T) {
	// Duplicate column: OLS normal equations are singular; ridge is fine.
	rng := stat.NewRand(33)
	d := &dataset.Dataset{Features: []string{"a", "b"}, Target: "y"}
	for i := 0; i < 100; i++ {
		x := stat.Uniform(rng, 0, 10)
		d.X = append(d.X, x, x) // perfectly collinear
		d.Y = append(d.Y, 3*x+stat.Gaussian(rng, 0, 0.1))
	}
	m, err := FitRidge(d, 1.0)
	if err != nil {
		t.Fatalf("FitRidge on collinear data: %v", err)
	}
	// The two coefficients share the signal symmetrically.
	if math.Abs(m.Coef[0]-m.Coef[1]) > 1e-6 {
		t.Errorf("collinear coefficients not symmetric: %v vs %v", m.Coef[0], m.Coef[1])
	}
	if pred := m.Predict([]float64{5, 5}); math.Abs(pred-15) > 0.5 {
		t.Errorf("prediction = %v, want ≈15", pred)
	}
}

func TestFitRidgeValidation(t *testing.T) {
	if _, err := FitRidge(&dataset.Dataset{}, 1); err == nil {
		t.Error("accepted empty dataset")
	}
	d := linearData(10, 34, 0)
	if _, err := FitRidge(d, -1); err == nil {
		t.Error("accepted negative penalty")
	}
}

func TestFitRidgeIntercceptUnpenalized(t *testing.T) {
	// Shift the target by a constant: the ridge solution's coefficients
	// must not change, only the intercept (which is unpenalized).
	d := linearData(200, 35, 0.2)
	before, err := FitRidge(d, 5)
	if err != nil {
		t.Fatal(err)
	}
	shifted := d.Clone()
	for i := range shifted.Y {
		shifted.Y[i] += 1000
	}
	after, err := FitRidge(shifted, 5)
	if err != nil {
		t.Fatal(err)
	}
	for j := range before.Coef {
		if math.Abs(before.Coef[j]-after.Coef[j]) > 1e-9 {
			t.Errorf("coef[%d] moved under target shift: %v vs %v", j, before.Coef[j], after.Coef[j])
		}
	}
	if math.Abs(after.Intercept-before.Intercept-1000) > 1e-6 {
		t.Errorf("intercept shift = %v, want 1000", after.Intercept-before.Intercept)
	}
}
