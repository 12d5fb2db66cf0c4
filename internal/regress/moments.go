package regress

import (
	"errors"
	"fmt"
	"math"

	"share/internal/dataset"
	"share/internal/linalg"
)

// Moments holds a dataset's OLS sufficient statistics over the augmented
// design (1, x...): the Gram matrix XᵀX, the moment vector Xᵀy, and the row
// count. Computed once per seller chunk, it turns a Shapley coalition-prefix
// extension from an O(rows·k²) row-by-row re-ingest into an O(k²) merge —
// the core of the moment-cached valuation kernel.
type Moments struct {
	gramStats
}

// DatasetMoments computes the sufficient statistics of d for k-feature
// rows. An empty dataset yields zero moments (merging them is a no-op), so
// zero-allocation sellers flow through the kernel unchanged.
func DatasetMoments(d *dataset.Dataset, k int) *Moments {
	mo := new(Moments)
	mo.Load(d, k)
	return mo
}

// Load overwrites mo with the sufficient statistics of d for k-feature rows,
// computed exactly as DatasetMoments computes them. When mo already holds
// k-feature moments its buffers are reused, so a caller refreshing the same
// chunks every round allocates nothing.
func (mo *Moments) Load(d *dataset.Dataset, k int) {
	mo.reset(k)
	if d != nil {
		mo.addDataset(d)
	}
}

// K returns the feature count (excluding intercept).
func (mo *Moments) K() int { return mo.k }

// Vector flattens the moments into one per-row-normalized profile
// [XᵀX/n ; Xᵀy/n] — the dataset's empirical second-moment signature.
// Two sellers drawing from the same distribution produce nearly parallel
// vectors regardless of how many rows each holds, which is what makes the
// cosine between Vectors a scale-free redundancy measure. Empty moments
// return nil.
func (mo *Moments) Vector() []float64 {
	if mo.n == 0 {
		return nil
	}
	inv := 1 / float64(mo.n)
	out := make([]float64, 0, len(mo.gram.Data)+len(mo.xty))
	for _, v := range mo.gram.Data {
		out = append(out, v*inv)
	}
	for _, v := range mo.xty {
		out = append(out, v*inv)
	}
	return out
}

// AddMoments merges a precomputed chunk into the accumulator in O(k²),
// equivalent (up to floating-point association order) to AddDataset over the
// chunk's rows. It panics on a feature-count mismatch — mixing designs is a
// programming error, matching the linalg dimension conventions.
func (inc *Incremental) AddMoments(mo *Moments) {
	if mo.k != inc.k {
		panic(fmt.Sprintf("regress: merging %d-feature moments into %d-feature accumulator", mo.k, inc.k))
	}
	if mo.n == 0 {
		return
	}
	for i, v := range mo.gram.Data {
		inc.gram.Data[i] += v
	}
	for i, v := range mo.xty {
		inc.xty[i] += v
	}
	inc.n += mo.n
}

// EvalMoments caches a test set's sufficient statistics so a fitted model
// can be scored in O(k²) instead of streaming every test row: with centered
// Gram G = Σ(x−μ)(x−μ)ᵀ, cross-moments b = Σ(x−μ)(y−ȳ) and total variation
// S_yy = Σ(y−ȳ)², the residual statistics of any model θ follow in closed
// form (DESIGN.md §9). The centered formulation is the numerically stable
// equivalent of the raw identity Σerr² = θᵀAθ − 2bᵀθ + yᵀy: raw second
// moments of CCPP-scale targets (y ≈ 450) would cancel ~3 digits against the
// residual sum; centering keeps every term at residual scale.
type EvalMoments struct {
	k     int
	n     float64
	mean  []float64 // feature column means μ
	meanY float64   // target mean ȳ
	gram  *linalg.Matrix
	xty   []float64
	syy   float64
}

// NewEvalMoments computes the centered test-set moments in two passes
// (means first, then centered accumulation).
func NewEvalMoments(test *dataset.Dataset) (*EvalMoments, error) {
	if test == nil || test.Len() == 0 {
		return nil, errors.New("regress: empty test set")
	}
	k := test.NumFeatures()
	em := &EvalMoments{
		k:    k,
		n:    float64(test.Len()),
		mean: make([]float64, k),
		gram: linalg.NewMatrix(k, k),
		xty:  make([]float64, k),
	}
	for i, y := range test.Y {
		for j, v := range test.Row(i) {
			em.mean[j] += v
		}
		em.meanY += y
	}
	for j := range em.mean {
		em.mean[j] /= em.n
	}
	em.meanY /= em.n
	c := make([]float64, k)
	for i, y := range test.Y {
		for j, v := range test.Row(i) {
			c[j] = v - em.mean[j]
		}
		dy := y - em.meanY
		em.syy += dy * dy
		for a := 0; a < k; a++ {
			ca := c[a]
			em.xty[a] += ca * dy
			if ca == 0 {
				continue
			}
			grow := em.gram.Row(a)
			for b := a; b < k; b++ {
				grow[b] += ca * c[b]
			}
		}
	}
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			em.gram.Set(b, a, em.gram.At(a, b))
		}
	}
	return em, nil
}

// residualStats returns Σ(err − meanErr)² (the centered residual sum) and
// the mean error for model m; both in O(k²).
func (em *EvalMoments) residualStats(m *Model) (centeredSS, meanErr float64) {
	// err_i = (y_i − ȳ) − cᵀ(x_i − μ) − δ with δ = intercept + cᵀμ − ȳ.
	// Centered sums of (x−μ) and (y−ȳ) vanish, so
	// Σ(err − meanErr)² = S_yy − 2cᵀb + cᵀGc and meanErr = −δ.
	var quad, cross, delta float64
	for a, ca := range m.Coef {
		cross += ca * em.xty[a]
		delta += ca * em.mean[a]
		row := em.gram.Row(a)
		var s float64
		for b, cb := range m.Coef {
			s += row[b] * cb
		}
		quad += ca * s
	}
	centeredSS = em.syy - 2*cross + quad
	if centeredSS < 0 {
		centeredSS = 0 // tiny negative from rounding on near-perfect fits
	}
	return centeredSS, -(m.Intercept + delta - em.meanY)
}

// ExplainedVariance returns 1 − Var(y−ŷ)/Var(y) on the cached test set,
// matching Evaluate's conventions: 0 for a constant-target test set and 0
// for non-finite results (so Shapley prefix scans treat unscorable models as
// worthless rather than erroring).
func (em *EvalMoments) ExplainedVariance(m *Model) float64 {
	if em.syy <= 0 {
		return 0
	}
	ss, _ := em.residualStats(m)
	ev := 1 - ss/em.syy
	if math.IsNaN(ev) || math.IsInf(ev, 0) {
		return 0
	}
	return ev
}
