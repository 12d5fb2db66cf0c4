package product

import (
	"errors"
	"fmt"
	"math"

	"share/internal/dataset"
	"share/internal/linalg"
)

// Logistic is a binary-classification product trained by iteratively
// reweighted least squares (Newton-Raphson on the log-likelihood). The
// continuous target is binarized on the fly: class 1 iff y > Threshold —
// for CCPP-like data, "is the plant's output above X MW". Performance is
// held-out accuracy.
type Logistic struct {
	// Threshold splits the continuous target into classes. Use
	// MedianThreshold to balance classes on a reference set.
	Threshold float64
	// MaxIter bounds IRLS iterations (0 → 25).
	MaxIter int
	// Ridge is the L2 damping added to the Hessian for stability
	// (0 → 1e-6).
	Ridge float64
}

// MedianThreshold returns the median target of d, the natural class split.
func MedianThreshold(d *dataset.Dataset) float64 {
	if d.Len() == 0 {
		return 0
	}
	ys := append([]float64(nil), d.Y...)
	// Insertion-free selection: full sort is fine at dataset sizes here.
	sortFloats(ys)
	return ys[len(ys)/2]
}

func sortFloats(a []float64) {
	// Simple heapsort to avoid importing sort for one call site.
	n := len(a)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(a, i, n)
	}
	for end := n - 1; end > 0; end-- {
		a[0], a[end] = a[end], a[0]
		siftDown(a, 0, end)
	}
}

func siftDown(a []float64, root, end int) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && a[child+1] > a[child] {
			child++
		}
		if a[root] >= a[child] {
			return
		}
		a[root], a[child] = a[child], a[root]
		root = child
	}
}

// Name implements Builder.
func (l Logistic) Name() string { return "logistic-classifier" }

// LogisticModel is a fitted logistic regression.
type LogisticModel struct {
	Intercept float64
	Coef      []float64
}

// Prob returns P(class 1 | x).
func (m *LogisticModel) Prob(x []float64) float64 {
	s := m.Intercept
	for j, c := range m.Coef {
		s += c * x[j]
	}
	return 1 / (1 + math.Exp(-s))
}

// FitLogistic trains a logistic regression of binary labels y (0/1) on the
// features of x by IRLS; x's own targets are not read. It needs both
// classes present; with one class it returns an error (callers decide how
// to score a degenerate product).
func FitLogistic(x *dataset.Dataset, y []float64, maxIter int, ridge float64) (*LogisticModel, error) {
	n := 0
	if x != nil {
		n = x.Len()
	}
	if n == 0 || n != len(y) {
		return nil, fmt.Errorf("product: logistic fit on %d/%d rows", n, len(y))
	}
	if err := x.Validate(); err != nil {
		return nil, fmt.Errorf("product: logistic fit: %w", err)
	}
	k := x.NumFeatures()
	if maxIter <= 0 {
		maxIter = 25
	}
	if ridge <= 0 {
		ridge = 1e-6
	}
	var pos int
	for _, v := range y {
		if v != 0 && v != 1 {
			return nil, fmt.Errorf("product: logistic label %v not in {0,1}", v)
		}
		if v == 1 {
			pos++
		}
	}
	if pos == 0 || pos == n {
		return nil, errors.New("product: logistic fit needs both classes")
	}

	beta := make([]float64, k+1)
	aug := make([]float64, k+1)
	for iter := 0; iter < maxIter; iter++ {
		// Assemble XᵀWX + ridge·I and Xᵀ(y − p) for the Newton step.
		hess := linalg.NewMatrix(k+1, k+1)
		grad := make([]float64, k+1)
		for i := 0; i < n; i++ {
			aug[0] = 1
			copy(aug[1:], x.Row(i))
			var eta float64
			for j, b := range beta {
				eta += b * aug[j]
			}
			p := 1 / (1 + math.Exp(-eta))
			w := p * (1 - p)
			if w < 1e-10 {
				w = 1e-10
			}
			r := y[i] - p
			for a := 0; a <= k; a++ {
				if aug[a] == 0 {
					continue
				}
				grad[a] += aug[a] * r
				row := hess.Row(a)
				wa := w * aug[a]
				for b := 0; b <= k; b++ {
					row[b] += wa * aug[b]
				}
			}
		}
		for a := 0; a <= k; a++ {
			hess.Set(a, a, hess.At(a, a)+ridge)
		}
		step, err := linalg.SolveSPD(hess, grad)
		if err != nil {
			return nil, fmt.Errorf("product: IRLS step: %w", err)
		}
		var maxStep float64
		for j := range beta {
			beta[j] += step[j]
			if s := math.Abs(step[j]); s > maxStep {
				maxStep = s
			}
		}
		if maxStep < 1e-10 {
			break
		}
	}
	return &LogisticModel{Intercept: beta[0], Coef: beta[1:]}, nil
}

// Build implements Builder.
func (l Logistic) Build(train, test *dataset.Dataset) (Report, error) {
	if test.Len() == 0 {
		return Report{}, errors.New("product: empty test set")
	}
	if train.Len() == 0 {
		return Report{Performance: 0, Detail: map[string]float64{}}, nil
	}
	labels := make([]float64, train.Len())
	for i, y := range train.Y {
		if y > l.Threshold {
			labels[i] = 1
		}
	}
	model, err := FitLogistic(train, labels, l.MaxIter, l.Ridge)
	if err != nil {
		// Degenerate purchase (single class): a constant classifier —
		// score it honestly on the test set rather than failing the round.
		majority := 0.0
		if labels[0] == 1 {
			majority = 1
		}
		acc, base := l.scoreConstant(test, majority)
		return Report{Performance: clamp01(acc), Detail: map[string]float64{
			"accuracy": acc, "base_rate": base, "degenerate": 1,
		}}, nil
	}

	var correct int
	var logloss float64
	var positives int
	for i, y := range test.Y {
		truth := 0.0
		if y > l.Threshold {
			truth = 1
			positives++
		}
		p := model.Prob(test.Row(i))
		pred := 0.0
		if p >= 0.5 {
			pred = 1
		}
		if pred == truth {
			correct++
		}
		pc := math.Min(math.Max(p, 1e-12), 1-1e-12)
		if truth == 1 {
			logloss -= math.Log(pc)
		} else {
			logloss -= math.Log(1 - pc)
		}
	}
	n := float64(test.Len())
	acc := float64(correct) / n
	return Report{
		Performance: clamp01(acc),
		Detail: map[string]float64{
			"accuracy":  acc,
			"logloss":   logloss / n,
			"base_rate": float64(positives) / n,
		},
	}, nil
}

// scoreConstant scores an always-majority classifier.
func (l Logistic) scoreConstant(test *dataset.Dataset, class float64) (acc, baseRate float64) {
	var correct, positives int
	for _, y := range test.Y {
		truth := 0.0
		if y > l.Threshold {
			truth = 1
			positives++
		}
		if truth == class {
			correct++
		}
	}
	n := float64(test.Len())
	return float64(correct) / n, float64(positives) / n
}
