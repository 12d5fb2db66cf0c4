// Package valuation scores data for the market pipeline: point-level Shapley
// values used to build the quality-sorted seller partition (§6.1), and
// chunk-level (per-seller) Shapley utilities that Normalize turns into the
// weights the broker blends into its dataset weights after each
// transaction (§5.2).
//
// Point-level valuation uses truncated Monte Carlo permutation sampling with
// an incremental OLS accumulator, so scanning a 9,568-point permutation costs
// O(n·k³) instead of O(n²·k²) — this is what makes the paper's "sort data by
// Shapley-measured quality with 100 permutations" preprocessing tractable.
package valuation

import (
	"errors"
	"math"
	"math/rand"

	"share/internal/dataset"
	"share/internal/regress"
	"share/internal/stat"
)

// PointShapleyOptions tune PointShapley; the zero value uses the paper's
// 100 permutations with a small evaluation subsample and no truncation.
type PointShapleyOptions struct {
	// Permutations is the Monte Carlo permutation count (default 100, the
	// paper's setting).
	Permutations int
	// EvalSample caps the number of test rows used to score each prefix
	// model (default 128; 0 keeps the default, negative uses all rows).
	EvalSample int
	// TruncateTol stops scanning a permutation once the prefix utility is
	// within this tolerance of the full-data utility (0 disables).
	TruncateTol float64
}

// PointShapley estimates each training point's Shapley contribution to the
// explained variance of an OLS model evaluated on test. The returned slice
// is aligned with train's rows.
func PointShapley(train, test *dataset.Dataset, opt PointShapleyOptions, rng *rand.Rand) ([]float64, error) {
	if train.Len() == 0 {
		return nil, errors.New("valuation: empty training set")
	}
	if test.Len() == 0 {
		return nil, errors.New("valuation: empty test set")
	}
	if rng == nil {
		return nil, errors.New("valuation: nil random source")
	}
	if opt.Permutations <= 0 {
		opt.Permutations = 100
	}
	eval := test
	if opt.EvalSample == 0 {
		opt.EvalSample = 128
	}
	if opt.EvalSample > 0 && test.Len() > opt.EvalSample {
		idx := stat.Perm(rng, test.Len())[:opt.EvalSample]
		eval = test.Subset(idx)
	}

	n := train.Len()
	k := train.NumFeatures()
	inc := regress.NewIncremental(k)

	// Utility of the grand coalition, for truncation.
	var grand float64
	if opt.TruncateTol > 0 {
		inc.AddDataset(train)
		grand = evalModel(inc, eval)
		inc.Reset()
	}

	sv := make([]float64, n)
	for p := 0; p < opt.Permutations; p++ {
		perm := stat.Perm(rng, n)
		inc.Reset()
		prev := 0.0
		for _, idx := range perm {
			inc.Add(train.Row(idx), train.Y[idx])
			cur := evalModel(inc, eval)
			sv[idx] += cur - prev
			prev = cur
			if opt.TruncateTol > 0 && math.Abs(grand-cur) <= opt.TruncateTol {
				// Remaining points in this permutation get zero marginal.
				break
			}
		}
	}
	inv := 1 / float64(opt.Permutations)
	for i := range sv {
		sv[i] *= inv
	}
	return sv, nil
}

// evalModel scores the accumulator's current model on eval by explained
// variance, returning 0 when the model cannot be solved or scored.
func evalModel(inc *regress.Incremental, eval *dataset.Dataset) float64 {
	m, err := inc.Solve()
	if err != nil {
		return 0
	}
	met, err := regress.Evaluate(m, eval)
	if err != nil {
		return 0
	}
	ev := met.ExplainedVariance
	if math.IsNaN(ev) || math.IsInf(ev, 0) {
		return 0
	}
	return ev
}

// QualitySort reorders train in place from highest to lowest point-level
// Shapley quality and returns the scores in the new row order.
func QualitySort(train, test *dataset.Dataset, opt PointShapleyOptions, rng *rand.Rand) ([]float64, error) {
	scores, err := PointShapley(train, test, opt, rng)
	if err != nil {
		return nil, err
	}
	// Capture scores in sorted order before the rows move.
	sorted := append([]float64(nil), scores...)
	if err := train.SortByScore(scores); err != nil {
		return nil, err
	}
	// SortByScore reorders rows by descending score; replicate the order
	// for the returned scores.
	// (Sorting a copy descending matches SortByScore's stable descending
	// order on distinct values; ties keep row order, which is fine for
	// quality bucketing.)
	sortDescending(sorted)
	return sorted, nil
}

func sortDescending(a []float64) {
	// Insertion-free: use sort via wrapper to avoid importing sort twice.
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] < v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// Normalize converts Shapley values into market weights, written into dst
// (len(sv) entries): positive, summing to 1, and preserving the values'
// relative ordering and spread. It shifts the values so the minimum lands
// at a small positive offset (1% of the spread) rather than flooring,
// because near-equilibrium fidelities are low and per-seller utilities
// cluster near zero — a hard floor would collapse every round's valuation
// to the uniform distribution and freeze the broker's weight learning
// (§5.2). Degenerate inputs (all equal) yield the uniform distribution;
// empty ones write nothing.
func Normalize(dst, sv []float64) {
	if len(sv) == 0 {
		return
	}
	out := dst[:len(sv)]
	lo, hi := sv[0], sv[0]
	for _, v := range sv[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	spread := hi - lo
	if spread <= 0 {
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return
	}
	offset := 0.01 * spread
	var total float64
	for i, v := range sv {
		out[i] = v - lo + offset
		total += out[i]
	}
	for i := range out {
		out[i] /= total
	}
}
