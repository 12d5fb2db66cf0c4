// Package product abstracts the data products a Share broker can
// manufacture. The paper keeps the product form open ("the form of the
// product is not restricted from simple data aggregation to deep learning
// models", §5.2) and evaluates on a linear-regression model; this package
// provides the Builder interface the market engine consumes and three
// concrete products:
//
//   - OLS: the paper's linear-regression product (performance = explained
//     variance),
//   - Logistic: a binary classifier trained by iteratively reweighted least
//     squares (performance = held-out accuracy),
//   - MeanVector: an aggregate-statistics product — per-feature means
//     estimated from the (noisy) purchased data (performance = 1 −
//     normalized error against the clean test set).
//
// All performances are normalized to [0, 1] so they can serve as the
// buyer's realized v̂ indicator interchangeably.
package product

import (
	"errors"
	"fmt"
	"math"

	"share/internal/dataset"
	"share/internal/regress"
)

// Report is a manufactured product's evaluation.
type Report struct {
	// Performance is the product's headline indicator in [0, 1] — the
	// realized counterpart of the buyer's demanded v (explained variance,
	// accuracy, or statistic fidelity depending on the product).
	Performance float64
	// Detail carries product-specific metrics (e.g. rmse, logloss).
	Detail map[string]float64
}

// Builder manufactures one product from purchased data and scores it on a
// clean held-out set. Implementations must be safe for concurrent Build
// calls (the Shapley weight update builds coalition products from several
// workers at once) and must tolerate heavily-noised and even degenerate
// training data, returning a zero-performance report rather than an error
// when the data is merely bad (errors are for structural problems: empty
// sets, shape mismatches).
type Builder interface {
	// Name identifies the product type in ledgers.
	Name() string
	// Build trains on train and evaluates on test.
	Build(train, test *dataset.Dataset) (Report, error)
}

// ByName resolves a product name to its builder: "" or "ols" (the paper's
// product), "ridge" (Ridge with Alpha 1), "logistic" (thresholded at ref's
// median target), "mean" or "histogram". ref is the data the logistic
// threshold is drawn from. An unknown name's error lists the accepted ones.
func ByName(name string, ref *dataset.Dataset) (Builder, error) {
	switch name {
	case "", "ols":
		return OLS{}, nil
	case "ridge":
		return Ridge{Alpha: 1}, nil
	case "logistic":
		return Logistic{Threshold: MedianThreshold(ref)}, nil
	case "mean":
		return MeanVector{}, nil
	case "histogram":
		return Histogram{}, nil
	default:
		return nil, fmt.Errorf("unknown product %q (want ols|ridge|logistic|mean|histogram)", name)
	}
}

// clamp01 confines a performance indicator to [0, 1].
func clamp01(x float64) float64 {
	if math.IsNaN(x) || x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// --- OLS: the paper's product ---

// OLS is the linear-regression product of the paper's evaluation.
type OLS struct{}

// Name implements Builder.
func (OLS) Name() string { return "ols-regression" }

// Build implements Builder.
func (OLS) Build(train, test *dataset.Dataset) (Report, error) {
	if test.Len() == 0 {
		return Report{}, errors.New("product: empty test set")
	}
	if train.Len() == 0 {
		return Report{Performance: 0, Detail: map[string]float64{}}, nil
	}
	m, err := regress.Fit(train)
	if err != nil {
		return Report{}, fmt.Errorf("product: OLS fit: %w", err)
	}
	met, err := regress.Evaluate(m, test)
	if err != nil {
		return Report{}, fmt.Errorf("product: OLS eval: %w", err)
	}
	return Report{
		Performance: clamp01(met.ExplainedVariance),
		Detail: map[string]float64{
			"explained_variance": met.ExplainedVariance,
			"r2":                 met.R2,
			"mse":                met.MSE,
			"rmse":               met.RMSE,
			"mae":                met.MAE,
		},
	}, nil
}

// --- Ridge: regularized regression product ---

// Ridge is an L2-regularized linear-regression product. On Share's
// LDP-noised purchases the regularization's variance reduction can beat
// plain OLS out of sample; Alpha tunes the penalty (0 behaves as OLS).
type Ridge struct {
	// Alpha is the L2 penalty weight.
	Alpha float64
}

// Name implements Builder.
func (r Ridge) Name() string { return "ridge-regression" }

// Build implements Builder.
func (r Ridge) Build(train, test *dataset.Dataset) (Report, error) {
	if test.Len() == 0 {
		return Report{}, errors.New("product: empty test set")
	}
	if train.Len() == 0 {
		return Report{Performance: 0, Detail: map[string]float64{}}, nil
	}
	m, err := regress.FitRidge(train, r.Alpha)
	if err != nil {
		return Report{}, fmt.Errorf("product: ridge fit: %w", err)
	}
	met, err := regress.Evaluate(m, test)
	if err != nil {
		return Report{}, fmt.Errorf("product: ridge eval: %w", err)
	}
	return Report{
		Performance: clamp01(met.ExplainedVariance),
		Detail: map[string]float64{
			"explained_variance": met.ExplainedVariance,
			"r2":                 met.R2,
			"rmse":               met.RMSE,
			"alpha":              r.Alpha,
		},
	}, nil
}

// --- MeanVector: aggregate-statistics product ---

// MeanVector is an aggregate-statistics product: the broker publishes the
// per-feature (and target) means of the purchased data. Performance is
// 1 − mean over columns of |est − true| / range, computed against the clean
// test set — 1 when the noisy purchase reproduces the population means
// exactly, decaying toward 0 as LDP noise or selection bias distorts them.
type MeanVector struct{}

// Name implements Builder.
func (MeanVector) Name() string { return "mean-vector" }

// Build implements Builder.
func (MeanVector) Build(train, test *dataset.Dataset) (Report, error) {
	if test.Len() == 0 {
		return Report{}, errors.New("product: empty test set")
	}
	if train.Len() == 0 {
		return Report{Performance: 0, Detail: map[string]float64{}}, nil
	}
	k := test.NumFeatures()
	if train.NumFeatures() != k {
		return Report{}, fmt.Errorf("product: train has %d features, test %d", train.NumFeatures(), k)
	}
	// Column means and ranges from the clean test set.
	trueMean := make([]float64, k+1)
	lo := make([]float64, k+1)
	hi := make([]float64, k+1)
	for j := range lo {
		lo[j] = math.Inf(1)
		hi[j] = math.Inf(-1)
	}
	col := func(row []float64, y float64, j int) float64 {
		if j < k {
			return row[j]
		}
		return y
	}
	for i, row := range test.X {
		for j := 0; j <= k; j++ {
			v := col(row, test.Y[i], j)
			trueMean[j] += v
			lo[j] = math.Min(lo[j], v)
			hi[j] = math.Max(hi[j], v)
		}
	}
	for j := range trueMean {
		trueMean[j] /= float64(test.Len())
	}
	// Estimated means from the purchased data.
	est := make([]float64, k+1)
	for i, row := range train.X {
		for j := 0; j <= k; j++ {
			est[j] += col(row, train.Y[i], j)
		}
	}
	detail := make(map[string]float64, k+2)
	var errSum float64
	for j := range est {
		est[j] /= float64(train.Len())
		span := hi[j] - lo[j]
		if span <= 0 {
			span = 1
		}
		e := math.Abs(est[j]-trueMean[j]) / span
		errSum += e
		name := "target"
		if j < k && j < len(test.Features) {
			name = test.Features[j]
		} else if j < k {
			name = fmt.Sprintf("f%d", j)
		}
		detail["err_"+name] = e
	}
	meanErr := errSum / float64(k+1)
	detail["mean_normalized_error"] = meanErr
	return Report{Performance: clamp01(1 - meanErr), Detail: detail}, nil
}
