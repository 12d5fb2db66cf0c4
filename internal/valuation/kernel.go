package valuation

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"share/internal/dataset"
	"share/internal/parallel"
	"share/internal/product"
	"share/internal/regress"
	"share/internal/stat"
)

// momentKernel is the moment-cached valuation engine for OLS products.
// Built once per trading round, it precomputes every seller chunk's Gram
// sufficient statistics and the test set's centered evaluation moments, so
// one permutation-prefix step costs O(k²) to merge a chunk, O(k³) to refit,
// and O(k²) to score — independent of chunk rows and test-set size. The
// seed-era estimator paid O(rows·k²) per merge and O(n_test·k) per score.
type momentKernel struct {
	moments []*regress.Moments
	eval    *regress.EvalMoments
	m       int
	k       int
}

// newMomentKernel validates the inputs and precomputes all per-round
// statistics. Empty chunks yield zero moments and merge as no-ops, matching
// the row-streaming estimator's treatment of zero-allocation sellers.
func newMomentKernel(chunks []*dataset.Dataset, test *dataset.Dataset) (*momentKernel, error) {
	m := len(chunks)
	if m == 0 {
		return nil, errors.New("valuation: no seller chunks")
	}
	k := 0
	for _, c := range chunks {
		if c.Len() > 0 {
			k = c.NumFeatures()
			break
		}
	}
	if k == 0 {
		return nil, errors.New("valuation: all seller chunks are empty")
	}
	if test.Len() == 0 {
		return nil, errors.New("valuation: empty test set")
	}
	eval, err := regress.NewEvalMoments(test)
	if err != nil {
		return nil, fmt.Errorf("valuation: caching test-set moments: %w", err)
	}
	kn := &momentKernel{
		moments: make([]*regress.Moments, m),
		eval:    eval,
		m:       m,
		k:       k,
	}
	for i, c := range chunks {
		kn.moments[i] = regress.DatasetMoments(c, k)
	}
	return kn, nil
}

// kernelScratch is one worker's reusable state: the coalition accumulator
// and an allocation-free solve workspace. One pair per worker keeps the
// permutation scan free of per-step heap traffic.
type kernelScratch struct {
	inc *regress.Incremental
	sol *regress.Solver
}

func (kn *momentKernel) newScratch() *kernelScratch {
	return &kernelScratch{
		inc: regress.NewIncremental(kn.k),
		sol: regress.NewSolver(kn.k),
	}
}

// seededPerms is one worker's permutation source for the seed+index
// convention. Permutation p must draw the stream of stat.NewRand(seed+p);
// re-seeding one rand.Rand fully re-initialises its source, so it draws
// exactly that stream without allocating a new ~4.9 KB source per
// permutation, and the permutation lands in a reused buffer.
type seededPerms struct {
	rng  *rand.Rand
	perm []int
}

func newSeededPerms(m int) *seededPerms {
	return &seededPerms{rng: stat.NewRand(0), perm: make([]int, m)}
}

// draw returns the permutation stat.Perm(stat.NewRand(seed), m) would. The
// slice is overwritten by the next draw.
func (s *seededPerms) draw(seed int64) []int {
	s.rng.Seed(seed)
	for i := range s.perm {
		s.perm[i] = i
	}
	stat.Shuffle(s.rng, s.perm)
	return s.perm
}

// utility scores the accumulator's current coalition: solve the ridge-damped
// normal equations and evaluate explained variance against the cached test
// moments. Unsolvable (empty) coalitions score 0, like evalModel.
func (kn *momentKernel) utility(sc *kernelScratch) float64 {
	mdl, err := sc.sol.Solve(sc.inc)
	if err != nil {
		return 0
	}
	return kn.eval.ExplainedVariance(mdl)
}

// grand returns the grand coalition's utility (for truncation).
func (kn *momentKernel) grand() float64 {
	sc := kn.newScratch()
	for _, mo := range kn.moments {
		sc.inc.AddMoments(mo)
	}
	return kn.utility(sc)
}

// scan credits one permutation's marginal contributions into credit
// (len m), reusing sc as scratch. grand/tol enable truncated Monte Carlo
// (tol ≤ 0 disables).
func (kn *momentKernel) scan(sc *kernelScratch, perm []int, credit []float64, grand, tol float64) {
	sc.inc.Reset()
	prev := 0.0
	for _, idx := range perm {
		sc.inc.AddMoments(kn.moments[idx])
		cur := kn.utility(sc)
		credit[idx] += cur - prev
		prev = cur
		if tol > 0 && math.Abs(grand-cur) <= tol {
			break
		}
	}
}

// SellerShapleyKernelCtx is the trade-round estimator for OLS products: the
// moment-cached kernel's permutation scan run through seededShapley, so the
// result depends only on (seed, permutations), bit-identically for every
// worker count. permutations ≤ 0 uses the paper's 100; workers ≤ 0 uses
// GOMAXPROCS. Cancellation follows seededShapley.
func SellerShapleyKernelCtx(ctx context.Context, chunks []*dataset.Dataset, test *dataset.Dataset, permutations int, truncateTol float64, seed int64, workers int) ([]float64, error) {
	kn, err := newMomentKernel(chunks, test)
	if err != nil {
		return nil, err
	}
	return kn.shapley(ctx, permutations, truncateTol, seed, workers)
}

// SellerShapleyKernelRedundancyCtx runs the kernel estimator and also
// returns each seller's pairwise redundancy computed from the very Gram
// sufficient statistics the kernel already cached for the round — the
// similarity signal costs no extra pass over seller data.
func SellerShapleyKernelRedundancyCtx(ctx context.Context, chunks []*dataset.Dataset, test *dataset.Dataset, permutations int, truncateTol float64, seed int64, workers int) (sv, redundancy []float64, err error) {
	kn, err := newMomentKernel(chunks, test)
	if err != nil {
		return nil, nil, err
	}
	sv, err = kn.shapley(ctx, permutations, truncateTol, seed, workers)
	if err != nil {
		return nil, nil, err
	}
	return sv, Redundancy(kn.moments), nil
}

// shapley is the shared body of the kernel entry points: one scratch per
// worker, fanned out by seededShapley.
func (kn *momentKernel) shapley(ctx context.Context, permutations int, truncateTol float64, seed int64, workers int) ([]float64, error) {
	var grand float64
	if truncateTol > 0 {
		grand = kn.grand()
	}
	return seededShapley(ctx, kn.m, permutations, seed, workers, func() scanFunc {
		sc := kn.newScratch()
		return func(perm []int, credit []float64) {
			kn.scan(sc, perm, credit, grand, truncateTol)
		}
	})
}

// SellerShapleyBuilderParallelCtx is the trade-round estimator for every
// product other than OLS: the coalition utility is the performance of the
// product built from the union of the coalition's chunks. The builder is
// opaque, so each prefix retrains from scratch; the fan-out, determinism
// and cancellation are seededShapley's, exactly as for
// SellerShapleyKernelCtx. The builder must be safe for concurrent Build
// calls (all in-tree builders are stateless).
func SellerShapleyBuilderParallelCtx(ctx context.Context, chunks []*dataset.Dataset, test *dataset.Dataset, b product.Builder, permutations int, truncateTol float64, seed int64, workers int) ([]float64, error) {
	m := len(chunks)
	if m == 0 {
		return nil, errors.New("valuation: no seller chunks")
	}
	if b == nil {
		return nil, errors.New("valuation: nil product builder")
	}
	if test.Len() == 0 {
		return nil, errors.New("valuation: empty test set")
	}

	utility := func(coalition []int) float64 {
		parts := make([]*dataset.Dataset, len(coalition))
		for i, c := range coalition {
			parts[i] = chunks[c]
		}
		joined, err := dataset.Concat(parts...)
		if err != nil {
			return 0
		}
		rep, err := b.Build(joined, test)
		if err != nil || math.IsNaN(rep.Performance) {
			return 0
		}
		return rep.Performance
	}
	var grand float64
	if truncateTol > 0 {
		full := make([]int, m)
		for i := range full {
			full[i] = i
		}
		grand = utility(full)
	}
	empty := utility(nil)

	return seededShapley(ctx, m, permutations, seed, workers, func() scanFunc {
		coalition := make([]int, 0, m)
		return func(perm []int, credit []float64) {
			coalition = coalition[:0]
			prev := empty
			for _, idx := range perm {
				coalition = insertSorted(coalition, idx)
				cur := utility(coalition)
				credit[idx] += cur - prev
				prev = cur
				if truncateTol > 0 && math.Abs(grand-cur) <= truncateTol {
					break
				}
			}
		}
	})
}

// scanFunc credits one permutation's marginal contributions into credit, a
// zeroed row of the arena that no other permutation touches.
type scanFunc func(perm []int, credit []float64)

// seededShapley is the permutation fan-out both estimators share, following
// the repo-wide determinism convention (internal/parallel): permutation p
// draws the stream of stat.NewRand(seed+p) from its worker's re-seeded
// source and writes only its own arena row, and the rows are reduced in
// permutation order — so the estimate depends only on (seed, permutations),
// bit-identically for every worker count. newScan is called once per worker
// and returns that worker's scan over its own scratch. permutations ≤ 0
// uses the paper's 100; workers ≤ 0 uses GOMAXPROCS.
//
// ctx is checked before each permutation: a canceled estimate stops
// dispatching new permutations, drains the pool within one permutation's
// work per worker, and returns ctx.Err().
func seededShapley(ctx context.Context, m, permutations int, seed int64, workers int, newScan func() scanFunc) ([]float64, error) {
	if permutations <= 0 {
		permutations = 100
	}
	workers = parallel.Resolve(workers, permutations)
	arena := make([]float64, permutations*m)
	scans := make([]scanFunc, workers)
	perms := make([]*seededPerms, workers)
	for w := range scans {
		scans[w] = newScan()
		perms[w] = newSeededPerms(m)
	}
	var canceled atomic.Bool
	parallel.ForWorker(workers, permutations, func(w, p int) {
		if canceled.Load() {
			return
		}
		if ctx.Err() != nil {
			canceled.Store(true)
			return
		}
		scans[w](perms[w].draw(seed+int64(p)), arena[p*m:(p+1)*m])
	})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("valuation: Shapley estimate canceled: %w", err)
	}

	sv := make([]float64, m)
	for p := 0; p < permutations; p++ {
		for i, v := range arena[p*m : (p+1)*m] {
			sv[i] += v
		}
	}
	inv := 1 / float64(permutations)
	for i := range sv {
		sv[i] *= inv
	}
	return sv, nil
}

// insertSorted inserts v into sorted slice a, keeping it sorted (coalition
// utilities expect ascending player indices).
func insertSorted(a []int, v int) []int {
	a = append(a, v)
	i := len(a) - 1
	for i > 0 && a[i-1] > v {
		a[i] = a[i-1]
		i--
	}
	a[i] = v
	return a
}
