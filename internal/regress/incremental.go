package regress

import (
	"fmt"

	"share/internal/dataset"
	"share/internal/linalg"
)

// gramStats are OLS sufficient statistics over the augmented design
// (1, x...): the Gram matrix XᵀX, the moment vector Xᵀy and the row count,
// plus the augmented-row buffer add fills. Incremental accumulates them;
// Moments holds a finished set.
type gramStats struct {
	k    int // features (excluding intercept)
	n    int // rows absorbed
	gram *linalg.Matrix
	xty  []float64
	aug  []float64
}

// reset zeroes the statistics for k-feature rows, reusing the buffers when
// they already hold k features.
func (s *gramStats) reset(k int) {
	if s.gram == nil || s.k != k {
		*s = gramStats{
			k:    k,
			gram: linalg.NewMatrix(k+1, k+1),
			xty:  make([]float64, k+1),
			aug:  make([]float64, k+1),
		}
		return
	}
	clear(s.gram.Data)
	clear(s.xty)
	s.n = 0
}

// clone returns an independent copy of the statistics.
func (s *gramStats) clone() gramStats {
	return gramStats{
		k:    s.k,
		n:    s.n,
		gram: s.gram.Clone(),
		xty:  append([]float64(nil), s.xty...),
		aug:  make([]float64, len(s.aug)),
	}
}

// add absorbs one observation (x, y).
func (s *gramStats) add(x []float64, y float64) {
	// Augmented row is (1, x...), built in the reused buffer. We update the
	// full matrix directly — k is small in Share.
	aug := s.aug
	aug[0] = 1
	n := copy(aug[1:], x)
	clear(aug[1+n:]) // a short row reads as zero-padded
	for i := 0; i <= s.k; i++ {
		ai := aug[i]
		if ai == 0 {
			continue
		}
		row := s.gram.Row(i)
		for j := 0; j <= s.k; j++ {
			row[j] += ai * aug[j]
		}
		s.xty[i] += ai * y
	}
	s.n++
}

// addDataset absorbs every row of d.
func (s *gramStats) addDataset(d *dataset.Dataset) {
	for i, y := range d.Y {
		s.add(d.Row(i), y)
	}
}

// Incremental accumulates the sufficient statistics of an OLS fit — the Gram
// matrix XᵀX and moment vector Xᵀy over the design with intercept — so rows
// can be added one at a time and a model re-solved in O(k³) regardless of how
// many rows have been seen. Monte Carlo data-point Shapley scans permutation
// prefixes; with this accumulator each prefix extension costs O(k²) to
// absorb and O(k³) to refit, instead of refitting from scratch in O(n·k²).
type Incremental struct {
	gramStats
}

// NewIncremental creates an accumulator for k-feature rows.
func NewIncremental(k int) *Incremental {
	inc := new(Incremental)
	inc.reset(k)
	return inc
}

// N returns the number of rows absorbed so far.
func (inc *Incremental) N() int { return inc.n }

// Add absorbs one observation (x, y) without allocating.
func (inc *Incremental) Add(x []float64, y float64) { inc.add(x, y) }

// AddDataset absorbs every row of d.
func (inc *Incremental) AddDataset(d *dataset.Dataset) { inc.addDataset(d) }

// Reset clears the accumulator for reuse without reallocating.
func (inc *Incremental) Reset() { inc.reset(inc.k) }

// Solve returns the OLS model for the absorbed rows. With fewer rows than
// parameters the normal equations are singular; a small ridge keeps the
// solve defined so Shapley prefix scans work from the first row.
//
// Each call allocates a fresh workspace and model; hot loops that refit the
// same accumulator shape thousands of times should hold a Solver instead.
func (inc *Incremental) Solve() (*Model, error) {
	mdl, err := NewSolver(inc.k).Solve(inc)
	if err != nil {
		return nil, err
	}
	out := &Model{Intercept: mdl.Intercept, Coef: append([]float64(nil), mdl.Coef...)}
	return out, nil
}

// Solver is a reusable workspace for repeated Incremental solves. The
// moment-cached Shapley kernel refits O(m·permutations) models per trade
// round; solving into preallocated scratch removes every per-refit heap
// allocation (gram copy, Cholesky factor, substitution vectors, model).
// A Solver is not safe for concurrent use — give each worker its own.
type Solver struct {
	k     int
	g     *linalg.Matrix // ridge-damped copy of the accumulator's gram
	l     *linalg.Matrix // Cholesky factor
	y     []float64      // forward-substitution intermediate
	beta  []float64      // solution (intercept first)
	model Model
}

// NewSolver creates a workspace for k-feature accumulators.
func NewSolver(k int) *Solver {
	n := k + 1
	return &Solver{
		k:    k,
		g:    linalg.NewMatrix(n, n),
		l:    linalg.NewMatrix(n, n),
		y:    make([]float64, n),
		beta: make([]float64, n),
	}
}

// Solve refits the accumulator's ridge-damped normal equations in the
// workspace. The returned model aliases the workspace and is only valid
// until the next Solve call — callers that retain it must copy. The math is
// identical to Incremental.Solve: same ridge, same factorization order.
func (s *Solver) Solve(inc *Incremental) (*Model, error) {
	if inc.k != s.k {
		return nil, fmt.Errorf("regress: solving %d-feature accumulator with %d-feature workspace", inc.k, s.k)
	}
	if inc.n == 0 {
		return nil, ErrEmptyTrainingSet
	}
	copy(s.g.Data, inc.gram.Data)
	var trace float64
	for i := 0; i <= s.k; i++ {
		trace += s.g.At(i, i)
	}
	ridge := 1e-10 * trace / float64(s.k+1)
	if ridge <= 0 {
		ridge = 1e-12
	}
	for i := 0; i <= s.k; i++ {
		s.g.Set(i, i, s.g.At(i, i)+ridge)
	}
	if err := linalg.CholeskyInto(s.g, s.l); err != nil {
		return nil, err
	}
	if err := linalg.SolveLowerInto(s.l, inc.xty, s.y); err != nil {
		return nil, err
	}
	if err := linalg.SolveLowerTInto(s.l, s.y, s.beta); err != nil {
		return nil, err
	}
	s.model.Intercept = s.beta[0]
	s.model.Coef = s.beta[1:]
	return &s.model, nil
}
