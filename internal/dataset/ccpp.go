package dataset

import (
	"math/rand"

	"share/internal/stat"
)

// CCPP feature ranges as published for the UCI Combined Cycle Power Plant
// dataset (hourly averages over 2006–2011):
//
//	AT  ambient temperature      1.81 .. 37.11 °C
//	V   exhaust vacuum          25.36 .. 81.56 cm Hg
//	AP  ambient pressure       992.89 .. 1033.30 millibar
//	RH  relative humidity       25.56 .. 100.16 %
//	PE  net electrical output  420.26 .. 495.76 MW (target)
//
// The generator below reproduces these marginals, the strong AT–V
// correlation present in the real plant data, and a target whose ordinary
// least squares fit attains explained variance ≈ 0.93 — the figure the real
// dataset yields — so the market pipeline behaves as it would on the genuine
// file.
const (
	ccppATLo, ccppATHi = 1.81, 37.11
	ccppVLo, ccppVHi   = 25.36, 81.56
	ccppAPLo, ccppAPHi = 992.89, 1033.30
	ccppRHLo, ccppRHHi = 25.56, 100.16
)

// CCPPFeatureNames are the canonical CCPP column names.
var CCPPFeatureNames = []string{"AT", "V", "AP", "RH"}

// CCPPTargetName is the canonical CCPP target column name.
const CCPPTargetName = "PE"

// CCPPSize is the row count of the real UCI dataset; SyntheticCCPP defaults
// to it when asked for a non-positive number of rows.
const CCPPSize = 9568

// CCPPBounds returns per-feature lower and upper bounds for calibrating LDP
// mechanisms over CCPP-shaped data.
func CCPPBounds() (lo, hi []float64) {
	return []float64{ccppATLo, ccppVLo, ccppAPLo, ccppRHLo},
		[]float64{ccppATHi, ccppVHi, ccppAPHi, ccppRHHi}
}

// SyntheticCCPP generates n rows of CCPP-like data (pass n <= 0 for the real
// dataset's 9,568 rows). The target is a calibrated linear combination of the
// features plus a small AT×V interaction and Gaussian noise; the coefficients
// approximate the published OLS fit on the real data (PE falls ~1.97 MW per
// °C of AT, ~0.23 MW per cm Hg of V, rises ~0.06 MW per millibar of AP and
// falls ~0.16 MW per % of RH).
func SyntheticCCPP(n int, rng *rand.Rand) *Dataset {
	if n <= 0 {
		n = CCPPSize
	}
	d := &Dataset{
		Features: CCPPFeatureNames,
		Target:   CCPPTargetName,
		X:        make([]float64, 0, n*len(CCPPFeatureNames)),
		Y:        make([]float64, n),
	}
	for i := 0; i < n; i++ {
		// AT drives the plant: draw it first, then V strongly correlated
		// with it (the real corpus has corr(AT, V) ≈ 0.84).
		at := stat.Uniform(rng, ccppATLo, ccppATHi)
		vMean := ccppVLo + (ccppVHi-ccppVLo)*(at-ccppATLo)/(ccppATHi-ccppATLo)
		v := clampTo(stat.Gaussian(rng, vMean, 7.0), ccppVLo, ccppVHi)
		ap := clampTo(stat.Gaussian(rng, 1013.2, 5.9), ccppAPLo, ccppAPHi)
		rh := clampTo(stat.Gaussian(rng, 73.3, 14.6), ccppRHLo, ccppRHHi)
		// Calibrated response surface. The interaction term and noise scale
		// are tuned so a plain OLS fit explains ≈ 93% of the variance,
		// matching the real dataset.
		pe := 454.0 -
			1.60*(at-19.65) -
			0.12*(v-54.3) +
			0.06*(ap-1013.2) -
			0.10*(rh-73.3) -
			0.006*(at-19.65)*(v-54.3) +
			stat.Gaussian(rng, 0, 4.7)
		d.X = append(d.X, at, v, ap, rh)
		d.Y[i] = pe
	}
	return d
}

func clampTo(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
