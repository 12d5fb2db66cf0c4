package dataset

import (
	"math/rand"

	"share/internal/stat"
)

// SyntheticMedical generates patient-record-like data for the paper's
// motivating scenario (§1: a drug company buying hospital data). Each row is
// one patient with clinically plausible marginals:
//
//	AGE   18 .. 90 years
//	BMI   16 .. 45 kg/m²
//	SBP   90 .. 200 mmHg (systolic blood pressure, correlated with age/BMI)
//	CHOL 120 .. 320 mg/dL (total cholesterol, correlated with BMI)
//	DOSE   0 .. 100 mg (administered trial dose)
//
// The target is a treatment-response score in [0, 100]: rising in dose with
// diminishing returns, depressed by age, hypertension and cholesterol, plus
// patient-level noise. A linear model explains most (~85%) of the variance,
// leaving headroom that a better product could capture — mirroring real
// clinical data's partial linearity.
func SyntheticMedical(n int, rng *rand.Rand) *Dataset {
	if n <= 0 {
		n = 5000
	}
	features := []string{"AGE", "BMI", "SBP", "CHOL", "DOSE"}
	d := &Dataset{
		Features: features,
		Target:   "RESPONSE",
		X:        make([]float64, 0, n*len(features)),
		Y:        make([]float64, n),
	}
	for i := 0; i < n; i++ {
		age := stat.Uniform(rng, 18, 90)
		bmi := clampTo(stat.Gaussian(rng, 27, 5), 16, 45)
		sbp := clampTo(stat.Gaussian(rng, 95+0.45*age+0.8*bmi, 12), 90, 200)
		chol := clampTo(stat.Gaussian(rng, 140+2.2*bmi, 30), 120, 320)
		dose := stat.Uniform(rng, 0, 100)
		// Response surface: concave in dose, penalized by risk factors.
		resp := 20 +
			0.9*dose - 0.004*dose*dose -
			0.25*(age-50) -
			0.12*(sbp-130) -
			0.05*(chol-200) +
			stat.Gaussian(rng, 0, 6)
		resp = clampTo(resp, 0, 100)
		d.X = append(d.X, age, bmi, sbp, chol, dose)
		d.Y[i] = resp
	}
	return d
}

// MedicalBounds returns per-feature bounds for calibrating LDP mechanisms
// over SyntheticMedical data (features only; append the 0..100 response
// range for full-record perturbation).
func MedicalBounds() (lo, hi []float64) {
	return []float64{18, 16, 90, 120, 0},
		[]float64{90, 45, 200, 320, 100}
}
