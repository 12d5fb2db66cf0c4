package dataset

import (
	"testing"

	"share/internal/stat"
)

func TestSyntheticMedicalRanges(t *testing.T) {
	rng := stat.NewRand(1)
	d := SyntheticMedical(3000, rng)
	if d.Len() != 3000 || d.NumFeatures() != 5 {
		t.Fatalf("shape = %dx%d", d.Len(), d.NumFeatures())
	}
	lo, hi := MedicalBounds()
	for i := range d.Y {
		for j, v := range d.Row(i) {
			if v < lo[j] || v > hi[j] {
				t.Fatalf("row %d feature %d = %v outside [%v, %v]", i, j, v, lo[j], hi[j])
			}
		}
		if d.Y[i] < 0 || d.Y[i] > 100 {
			t.Fatalf("response %v outside [0, 100]", d.Y[i])
		}
	}
	if d.Features[4] != "DOSE" || d.Target != "RESPONSE" {
		t.Error("schema labels wrong")
	}
}

func TestSyntheticMedicalDefaultSize(t *testing.T) {
	d := SyntheticMedical(0, stat.NewRand(2))
	if d.Len() != 5000 {
		t.Errorf("default size = %d", d.Len())
	}
}

func TestSyntheticMedicalClinicalStructure(t *testing.T) {
	rng := stat.NewRand(3)
	d := SyntheticMedical(8000, rng)
	col := func(j int) []float64 {
		out := make([]float64, d.Len())
		for i := range out {
			out[i] = d.Row(i)[j]
		}
		return out
	}
	// Blood pressure rises with age.
	if c := correlation(col(0), col(2)); c < 0.4 {
		t.Errorf("corr(AGE, SBP) = %v, want clearly positive", c)
	}
	// Cholesterol rises with BMI.
	if c := correlation(col(1), col(3)); c < 0.25 {
		t.Errorf("corr(BMI, CHOL) = %v, want positive", c)
	}
	// Response rises with dose and falls with age.
	if c := correlation(col(4), d.Y); c < 0.5 {
		t.Errorf("corr(DOSE, RESPONSE) = %v, want strongly positive", c)
	}
	if c := correlation(col(0), d.Y); c > -0.2 {
		t.Errorf("corr(AGE, RESPONSE) = %v, want negative", c)
	}
}
