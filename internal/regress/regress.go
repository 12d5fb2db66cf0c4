// Package regress implements the data product of the paper's evaluation: an
// ordinary-least-squares linear regression model, together with the metrics
// the market mechanism consumes — explained variance (the paper's product
// performance indicator v), R², MSE and RMSE.
//
// Training uses the QR-based least-squares driver from internal/linalg with
// an automatic intercept column; prediction is a dense dot product.
package regress

import (
	"errors"
	"fmt"
	"math"

	"share/internal/dataset"
	"share/internal/linalg"
	"share/internal/parallel"
)

// ErrEmptyTrainingSet reports an attempt to fit a model on no rows.
var ErrEmptyTrainingSet = errors.New("regress: empty training set")

// Model is a fitted linear regression: ŷ = Intercept + Σ Coef[j]·x[j].
type Model struct {
	// Intercept is the fitted bias term.
	Intercept float64
	// Coef holds one coefficient per feature column.
	Coef []float64
}

// designs recycles Fit's design matrices. LeastSquares never keeps its
// input, so a design is dead once the solve returns; a shared free list
// rather than a field keeps Fit safe for concurrent callers.
var designs parallel.FreeList[linalg.Matrix]

// Fit trains an OLS model on d. It requires at least one row; with fewer
// rows than features the rank-deficient fallback in linalg produces the
// minimum-norm ridge solution, so tiny Shapley coalitions still train.
func Fit(d *dataset.Dataset) (*Model, error) {
	if d.Len() == 0 {
		return nil, ErrEmptyTrainingSet
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("regress: invalid training set: %w", err)
	}
	k := d.NumFeatures()
	design := designs.Get()
	design.Reshape(d.Len(), k+1)
	for i := range d.Y {
		dr := design.Row(i)
		dr[0] = 1
		copy(dr[1:], d.Row(i))
	}
	beta, err := linalg.LeastSquares(design, d.Y)
	designs.Put(design, 8*cap(design.Data))
	if err != nil {
		return nil, fmt.Errorf("regress: solving least squares: %w", err)
	}
	return &Model{Intercept: beta[0], Coef: beta[1:]}, nil
}

// Predict returns the model's prediction for one feature vector.
func (m *Model) Predict(x []float64) float64 {
	s := m.Intercept
	for j, c := range m.Coef {
		s += c * x[j]
	}
	return s
}

// PredictAll returns predictions for every row of d.
func (m *Model) PredictAll(d *dataset.Dataset) []float64 {
	out := make([]float64, d.Len())
	for i := range out {
		out[i] = m.Predict(d.Row(i))
	}
	return out
}

// Metrics summarizes model performance on a held-out set.
type Metrics struct {
	// ExplainedVariance is 1 − Var(y−ŷ)/Var(y), the paper's performance
	// indicator v for regression products.
	ExplainedVariance float64
	// R2 is the coefficient of determination 1 − SS_res/SS_tot.
	R2 float64
	// MSE is the mean squared error.
	MSE float64
	// RMSE is sqrt(MSE).
	RMSE float64
	// MAE is the mean absolute error.
	MAE float64
}

// Evaluate computes Metrics for the model on test data. A test set whose
// target is constant yields ExplainedVariance and R² of 0 (no variance to
// explain) rather than NaN.
func Evaluate(m *Model, test *dataset.Dataset) (Metrics, error) {
	if test.Len() == 0 {
		return Metrics{}, errors.New("regress: empty test set")
	}
	n := float64(test.Len())
	var meanY float64
	for _, y := range test.Y {
		meanY += y
	}
	meanY /= n

	var ssRes, ssTot, sumErr, sumAbs, sumErrSq float64
	for i, y := range test.Y {
		err := y - m.Predict(test.Row(i))
		ssRes += err * err
		sumErr += err
		sumErrSq += err * err
		sumAbs += math.Abs(err)
		d := y - meanY
		ssTot += d * d
	}
	mse := ssRes / n
	met := Metrics{
		MSE:  mse,
		RMSE: math.Sqrt(mse),
		MAE:  sumAbs / n,
	}
	if ssTot > 0 {
		met.R2 = 1 - ssRes/ssTot
		meanErr := sumErr / n
		varErr := sumErrSq/n - meanErr*meanErr
		met.ExplainedVariance = 1 - varErr/(ssTot/n)
	}
	return met, nil
}

// ExplainedVariance is a convenience wrapper: fit on train, score on test,
// return the explained-variance metric (0 when the fit fails, so Shapley
// coalition evaluation treats untrainable coalitions as worthless rather
// than erroring out).
func ExplainedVariance(train, test *dataset.Dataset) float64 {
	m, err := Fit(train)
	if err != nil {
		return 0
	}
	met, err := Evaluate(m, test)
	if err != nil {
		return 0
	}
	if math.IsNaN(met.ExplainedVariance) || math.IsInf(met.ExplainedVariance, 0) {
		return 0
	}
	return met.ExplainedVariance
}
