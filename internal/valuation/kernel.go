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
// Loaded once per trading round, it precomputes every seller chunk's Gram
// sufficient statistics and scores coalitions against the test set's
// centered evaluation moments, which the caller computes once per test set,
// so one permutation-prefix step costs O(k²) to merge a chunk, O(k³) to
// refit, and O(k²) to score — independent of chunk rows and test-set size.
// The seed-era estimator paid O(rows·k²) per merge and O(n_test·k) per
// score.
//
// A kernel is reusable: load refreshes it for a new round over the buffers
// of the previous one, and the per-worker scratch survives with it.
type momentKernel struct {
	moments []*regress.Moments
	eval    *regress.EvalMoments
	m       int
	k       int
	scratch []*kernelScratch // one per worker, see workerScratch
}

// load validates the inputs and precomputes all per-round statistics into
// an existing kernel, recomputing the per-chunk moments in their own
// buffers. Empty chunks yield zero moments and merge as no-ops, matching
// the row-streaming estimator's treatment of zero-allocation sellers.
func (kn *momentKernel) load(chunks []*dataset.Dataset, eval *regress.EvalMoments) error {
	m := len(chunks)
	if m == 0 {
		return errors.New("valuation: no seller chunks")
	}
	k := 0
	for _, c := range chunks {
		if c.Len() > 0 {
			k = c.NumFeatures()
			break
		}
	}
	if k == 0 {
		return errors.New("valuation: all seller chunks are empty")
	}
	if eval == nil {
		return errors.New("valuation: no test-set moments")
	}
	kn.eval, kn.m, kn.k = eval, m, k
	kn.moments = grow(kn.moments, m)
	for i, c := range chunks {
		if kn.moments[i] == nil {
			kn.moments[i] = new(regress.Moments)
		}
		kn.moments[i].Load(c, k)
	}
	return nil
}

// grow returns s with length n, keeping its elements and backing array
// when it has the capacity.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// kernelScratch is one worker's reusable state: the coalition accumulator
// and an allocation-free solve workspace. One pair per worker keeps the
// permutation scan free of per-step heap traffic.
type kernelScratch struct {
	inc *regress.Incremental
	sol *regress.Solver
	k   int
}

func (kn *momentKernel) newScratch() *kernelScratch {
	return &kernelScratch{
		inc: regress.NewIncremental(kn.k),
		sol: regress.NewSolver(kn.k),
		k:   kn.k,
	}
}

// workerScratch returns the first n workers' scratch, building any that is
// missing or sized for another feature count.
func (kn *momentKernel) workerScratch(n int) []*kernelScratch {
	kn.scratch = grow(kn.scratch, n)
	for w, sc := range kn.scratch {
		if sc == nil || sc.k != kn.k {
			kn.scratch[w] = kn.newScratch()
		}
	}
	return kn.scratch
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

// grand returns the grand coalition's utility (for truncation), computed in
// worker 0's scratch before any worker runs.
func (kn *momentKernel) grand() float64 {
	sc := kn.workerScratch(1)[0]
	sc.inc.Reset()
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
// moment-cached kernel's permutation scan run through the seeded fan-out, so
// the result depends only on (seed, permutations), bit-identically for
// every worker count. eval holds the test set's moments
// (regress.NewEvalMoments), which a market computes once for its fixed test
// set. permutations ≤ 0 uses the paper's 100; workers ≤ 0 uses GOMAXPROCS.
// Cancellation follows fanout.run.
func SellerShapleyKernelCtx(ctx context.Context, chunks []*dataset.Dataset, eval *regress.EvalMoments, permutations int, truncateTol float64, seed int64, workers int) ([]float64, error) {
	st := fanouts.Get()
	defer st.release()
	kn := &st.kernel
	if err := kn.load(chunks, eval); err != nil {
		return nil, err
	}
	return kn.shapley(ctx, st, permutations, truncateTol, seed, workers)
}

// SellerShapleyKernelRedundancyCtx runs the kernel estimator and also
// returns each seller's pairwise redundancy computed from the very Gram
// sufficient statistics the kernel already cached for the round — the
// similarity signal costs no extra pass over seller data.
func SellerShapleyKernelRedundancyCtx(ctx context.Context, chunks []*dataset.Dataset, eval *regress.EvalMoments, permutations int, truncateTol float64, seed int64, workers int) (sv, redundancy []float64, err error) {
	st := fanouts.Get()
	defer st.release()
	kn := &st.kernel
	if err := kn.load(chunks, eval); err != nil {
		return nil, nil, err
	}
	sv, err = kn.shapley(ctx, st, permutations, truncateTol, seed, workers)
	if err != nil {
		return nil, nil, err
	}
	return sv, Redundancy(kn.moments), nil
}

// shapley is the shared body of the kernel entry points: one scratch per
// worker, fanned out by st.
func (kn *momentKernel) shapley(ctx context.Context, st *fanout, permutations int, truncateTol float64, seed int64, workers int) ([]float64, error) {
	workers = st.reserve(kn.m, permutations, workers)
	var grand float64
	if truncateTol > 0 {
		grand = kn.grand()
	}
	scratch := kn.workerScratch(workers)
	return st.run(ctx, seed, func(w int, perm []int, credit []float64) {
		kn.scan(scratch[w], perm, credit, grand, truncateTol)
	})
}

// SellerShapleyBuilderParallelCtx is the trade-round estimator for every
// product other than OLS: the coalition utility is the performance of the
// product built from the union of the coalition's chunks. The builder is
// opaque, so each prefix retrains from scratch; the fan-out, determinism
// and cancellation are fanout.run's, exactly as for
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
	st := fanouts.Get()
	defer st.release()
	workers = st.reserve(m, permutations, workers)
	st.coalitions = grow(st.coalitions, workers)
	st.parts = grow(st.parts, workers)
	st.joins = grow(st.joins, workers)
	for w := 0; w < workers; w++ {
		st.coalitions[w] = grow(st.coalitions[w], m)
		st.parts[w] = grow(st.parts[w], m)
	}

	// utility builds the product of the coalition's chunks, joined through
	// the worker's parts buffer into its reused join dataset — Build must
	// not retain its training set, so the next coalition may overwrite it.
	utility := func(w int, coalition []int) float64 {
		parts := st.parts[w][:len(coalition)]
		for i, c := range coalition {
			parts[i] = chunks[c]
		}
		joined := &st.joins[w]
		if err := dataset.ConcatInto(joined, parts...); err != nil {
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
		full := st.coalitions[0]
		for i := range full {
			full[i] = i
		}
		grand = utility(0, full)
	}
	empty := utility(0, nil)

	return st.run(ctx, seed, func(w int, perm []int, credit []float64) {
		coalition := st.coalitions[w][:0]
		prev := empty
		for _, idx := range perm {
			coalition = insertSorted(coalition, idx)
			cur := utility(w, coalition)
			credit[idx] += cur - prev
			prev = cur
			if truncateTol > 0 && math.Abs(grand-cur) <= truncateTol {
				break
			}
		}
	})
}

// fanout is the working memory of one Shapley estimate, reused across
// estimates: the credit arena, one re-seeded permutation source per worker,
// the moment kernel with its per-worker scratch, and the builder
// estimator's per-worker coalition, parts and join buffers. An estimate
// takes one from fanouts and releases it when it returns, so a trade round
// reuses the ~4.9 KB math/rand source behind each worker's permutations,
// the kernel's per-chunk moments, the coalition joins and the arena instead
// of rebuilding them.
// Between Get and release a state belongs to one estimate, whose workers
// touch only their own index; estimates on different markets run
// concurrently and share the list.
type fanout struct {
	arena        []float64
	perms        []*seededPerms
	m            int
	permutations int
	workers      int

	kernel     momentKernel
	coalitions [][]int
	parts      [][]*dataset.Dataset
	joins      []dataset.Dataset
}

var fanouts parallel.FreeList[fanout]

// release drops the state's references to the caller's chunks and returns
// it to fanouts. The footprint counts the arena, the permutation sources,
// the join blocks and the per-chunk moments.
func (st *fanout) release() {
	for _, p := range st.parts {
		clear(p)
	}
	bytes := 8*cap(st.arena) + 5000*len(st.perms)
	for i := range st.joins {
		j := &st.joins[i]
		j.Features, j.Target = nil, ""
		bytes += 8 * (cap(j.X) + cap(j.Y))
	}
	for _, mo := range st.kernel.moments {
		if mo != nil {
			bytes += 8 * (mo.K() + 1) * (mo.K() + 4)
		}
	}
	fanouts.Put(st, bytes)
}

// reserve sizes the state for an estimate over m players and returns the
// resolved worker count: permutations ≤ 0 uses the paper's 100; workers ≤ 0
// uses GOMAXPROCS, and never more workers than permutations run. Every
// arena row starts zeroed.
func (st *fanout) reserve(m, permutations, workers int) int {
	if permutations <= 0 {
		permutations = 100
	}
	workers = parallel.Resolve(workers, permutations)
	st.m, st.permutations, st.workers = m, permutations, workers
	st.arena = grow(st.arena, permutations*m)
	clear(st.arena)
	st.perms = grow(st.perms, workers)
	for w, p := range st.perms {
		if p == nil {
			st.perms[w] = newSeededPerms(m)
		} else {
			p.perm = grow(p.perm, m)
		}
	}
	return workers
}

// scanFunc credits one permutation's marginal contributions into credit, a
// zeroed row of the arena that no other permutation touches. worker is the
// index of the goroutine running it, for per-worker scratch.
type scanFunc func(worker int, perm []int, credit []float64)

// run is the permutation fan-out both estimators share, following the
// repo-wide determinism convention (internal/parallel): permutation p draws
// the stream of stat.NewRand(seed+p) from its worker's re-seeded source and
// writes only its own arena row, and the rows are reduced in permutation
// order — so the estimate depends only on (seed, permutations),
// bit-identically for every worker count. reserve must have sized the
// state first.
//
// ctx is checked before each permutation: a canceled estimate stops
// dispatching new permutations, drains the pool within one permutation's
// work per worker, and returns ctx.Err().
func (st *fanout) run(ctx context.Context, seed int64, scan scanFunc) ([]float64, error) {
	m, permutations := st.m, st.permutations
	var canceled atomic.Bool
	parallel.ForWorker(st.workers, permutations, func(w, p int) {
		if canceled.Load() {
			return
		}
		if ctx.Err() != nil {
			canceled.Store(true)
			return
		}
		scan(w, st.perms[w].draw(seed+int64(p)), st.arena[p*m:(p+1)*m])
	})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("valuation: Shapley estimate canceled: %w", err)
	}

	sv := make([]float64, m)
	for p := 0; p < permutations; p++ {
		for i, v := range st.arena[p*m : (p+1)*m] {
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
