package regress

import (
	"errors"
	"fmt"

	"share/internal/dataset"
	"share/internal/linalg"
)

// FitRidge trains an L2-regularized linear model: it minimizes
// ‖y − β₀ − Xβ‖² + α‖β‖², leaving the intercept unpenalized (the standard
// convention — penalizing β₀ would make the fit depend on target offsets).
// Ridge is the natural product for Share's heavily LDP-noised purchases:
// measurement error in X biases OLS coefficients toward zero erratically,
// and the ridge's variance reduction often nets out ahead on held-out data.
func FitRidge(d *dataset.Dataset, alpha float64) (*Model, error) {
	if d.Len() == 0 {
		return nil, ErrEmptyTrainingSet
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("regress: invalid training set: %w", err)
	}
	if alpha < 0 {
		return nil, errors.New("regress: ridge penalty must be non-negative")
	}
	if alpha == 0 {
		return Fit(d)
	}
	k := d.NumFeatures()
	// Center the target and features so the intercept absorbs the means
	// and stays unpenalized.
	xMean := make([]float64, k)
	var yMean float64
	for i, y := range d.Y {
		for j, v := range d.Row(i) {
			xMean[j] += v
		}
		yMean += y
	}
	n := float64(d.Len())
	for j := range xMean {
		xMean[j] /= n
	}
	yMean /= n

	// Normal equations on centered data: (XcᵀXc + αI)β = Xcᵀyc.
	gram := linalg.NewMatrix(k, k)
	xty := make([]float64, k)
	cRow := make([]float64, k)
	for i, y := range d.Y {
		for j, v := range d.Row(i) {
			cRow[j] = v - xMean[j]
		}
		yc := y - yMean
		for a := 0; a < k; a++ {
			ca := cRow[a]
			if ca == 0 {
				continue
			}
			gRow := gram.Row(a)
			for b := 0; b < k; b++ {
				gRow[b] += ca * cRow[b]
			}
			xty[a] += ca * yc
		}
	}
	for j := 0; j < k; j++ {
		gram.Set(j, j, gram.At(j, j)+alpha)
	}
	beta, err := linalg.SolveSPD(gram, xty)
	if err != nil {
		return nil, fmt.Errorf("regress: ridge solve: %w", err)
	}
	intercept := yMean
	for j, b := range beta {
		intercept -= b * xMean[j]
	}
	return &Model{Intercept: intercept, Coef: beta}, nil
}
