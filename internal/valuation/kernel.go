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

// SellerShapleyMoments is the moment-cached drop-in for SellerShapleyTMC:
// the same truncated Monte Carlo estimator over the same permutation stream
// (one stat.Perm draw from rng per permutation), but with each prefix step
// reduced from O(rows·k²)+O(n_test·k) to O(k²)+O(k³). On identical (rng
// seed, permutations) it agrees with SellerShapleyTMC to ≲1e-9 — the only
// difference is floating-point association order in the Gram sums and the
// fused evaluation.
func SellerShapleyMoments(chunks []*dataset.Dataset, test *dataset.Dataset, permutations int, truncateTol float64, rng *rand.Rand) ([]float64, error) {
	return SellerShapleyMomentsCtx(context.Background(), chunks, test, permutations, truncateTol, rng)
}

// SellerShapleyMomentsCtx is SellerShapleyMoments with cooperative
// cancellation, checked once per permutation.
func SellerShapleyMomentsCtx(ctx context.Context, chunks []*dataset.Dataset, test *dataset.Dataset, permutations int, truncateTol float64, rng *rand.Rand) ([]float64, error) {
	if rng == nil {
		return nil, errors.New("valuation: nil random source")
	}
	if permutations <= 0 {
		permutations = 100
	}
	kn, err := newMomentKernel(chunks, test)
	if err != nil {
		return nil, err
	}
	var grand float64
	if truncateTol > 0 {
		grand = kn.grand()
	}
	sc := kn.newScratch()
	sv := make([]float64, kn.m)
	for p := 0; p < permutations; p++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("valuation: canceled after %d/%d permutations: %w", p, permutations, err)
		}
		kn.scan(sc, stat.Perm(rng, kn.m), sv, grand, truncateTol)
	}
	inv := 1 / float64(permutations)
	for i := range sv {
		sv[i] *= inv
	}
	return sv, nil
}

// SellerShapleyKernelCtx is the production trade-round estimator: the
// moment-cached kernel with its permutations fanned out across a worker
// pool. It follows the repo-wide determinism convention (internal/parallel):
// each permutation draws the stream of a rand.Rand seeded as seed+perm-index
// (one per worker, re-seeded per permutation) and writes into its own arena
// row, and the final reduction runs in permutation order — so the result
// depends only on (seed, permutations), bit-identically for every worker
// count. workers ≤ 0 uses GOMAXPROCS.
//
// ctx is checked before each permutation: a canceled round stops dispatching
// new permutations, drains the pool within one permutation's work per
// worker, and returns ctx.Err().
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

// shapley is the shared fan-out body of the kernel entry points.
func (kn *momentKernel) shapley(ctx context.Context, permutations int, truncateTol float64, seed int64, workers int) ([]float64, error) {
	if permutations <= 0 {
		permutations = 100
	}
	var grand float64
	if truncateTol > 0 {
		grand = kn.grand()
	}

	workers = parallel.Resolve(workers, permutations)
	arena := make([]float64, permutations*kn.m)
	scratch := make([]*kernelScratch, workers)
	perms := make([]*seededPerms, workers)
	for w := range scratch {
		scratch[w] = kn.newScratch()
		perms[w] = newSeededPerms(kn.m)
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
		kn.scan(scratch[w], perms[w].draw(seed+int64(p)), arena[p*kn.m:(p+1)*kn.m], grand, truncateTol)
	})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("valuation: kernel canceled: %w", err)
	}

	sv := make([]float64, kn.m)
	for p := 0; p < permutations; p++ {
		part := arena[p*kn.m : (p+1)*kn.m]
		for i, v := range part {
			sv[i] += v
		}
	}
	inv := 1 / float64(permutations)
	for i := range sv {
		sv[i] *= inv
	}
	return sv, nil
}

// SellerShapleyBuilderParallelCtx fans the permutations of the
// builder-generic estimator (SellerShapleyBuilderCtx) across a worker pool
// for non-OLS products. The builder is opaque, so each prefix still retrains
// from scratch — the win here is wall-clock only, near-linear in workers
// because permutations are independent. Determinism and cancellation follow
// the same contract as SellerShapleyKernelCtx: per-permutation streams seeded
// seed+index, in-order reduction, ctx checked before each permutation. The
// builder must be safe for concurrent Build calls (all in-tree builders are
// stateless).
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
	if permutations <= 0 {
		permutations = 100
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

	workers = parallel.Resolve(workers, permutations)
	arena := make([]float64, permutations*m)
	perms := make([]*seededPerms, workers)
	for w := range perms {
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
		perm := perms[w].draw(seed + int64(p))
		credit := arena[p*m : (p+1)*m]
		coalition := make([]int, 0, m)
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
	})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("valuation: kernel canceled: %w", err)
	}

	sv := make([]float64, m)
	for p := 0; p < permutations; p++ {
		part := arena[p*m : (p+1)*m]
		for i, v := range part {
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
