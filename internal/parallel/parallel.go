// Package parallel provides the repo-wide deterministic worker-pool
// convention: bounded fan-out over an index space with in-order reduction.
//
// Every concurrent path in Share follows the same three rules, enforced
// here; the Shapley fan-out behind every trade's valuation is the canonical
// user:
//
//  1. workers ≤ 0 selects runtime.GOMAXPROCS(0), and the pool never runs
//     more workers than there are jobs (Resolve).
//  2. Each index owns its output slot (and, where randomness is involved,
//     its own rand.Rand seeded as seed+index), so results depend only on
//     the inputs — never on the worker count or the scheduler.
//  3. Reductions run in index order after the pool drains. Floating-point
//     addition is not associative; a grouped or completion-order reduction
//     would drift in the last bits and break byte-identical output.
//
// Work is handed out through an atomic counter rather than a channel: the
// pool is used for fine-grained jobs (a single equilibrium solve, one
// Shapley permutation) where channel send/receive overhead is measurable,
// and dynamic dispatch keeps the pool balanced when job costs are skewed
// (e.g. mean-field sweeps where cost grows with the index).
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve applies the worker-count convention: workers ≤ 0 means
// runtime.GOMAXPROCS(0), clamped to n jobs and never below 1.
func Resolve(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// For runs fn(index) for every index in [0, n) across a bounded worker
// pool and returns when all calls have completed. fn must confine its
// writes to index-owned storage; For imposes no ordering between calls.
// When the resolved worker count is 1 the indices run inline, in order,
// on the calling goroutine.
func For(workers, n int, fn func(index int)) {
	ForWorker(workers, n, func(_, index int) { fn(index) })
}

// ForWorker is For with the worker's identity passed through, for callers
// that keep per-worker scratch (worker is in [0, Resolve(workers, n))).
// Scratch reuse must not leak state between indices in a way that affects
// results — determinism rule 2 still applies.
func ForWorker(workers, n int, fn func(worker, index int)) {
	if n <= 0 {
		return
	}
	w := Resolve(workers, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for id := 0; id < w; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(id, i)
			}
		}(id)
	}
	wg.Wait()
}

// Map runs fn over [0, n) and collects the results in index order. If any
// call errs, Map returns the error of the lowest failing index (all calls
// still run — grid points are cheap and a deterministic error beats a
// fast abort) and discards the results.
func Map[T any](workers, n int, fn func(index int) (T, error)) ([]T, error) {
	return MapWorker(workers, n, func(_, i int) (T, error) { return fn(i) })
}

// MapWorker is Map with the worker's identity passed through, for callers
// that amortize expensive per-worker state (a cloned solver prototype, a
// scratch arena) across the indices one worker handles. The scratch-reuse
// caveat of ForWorker applies: results must depend only on the index.
func MapWorker[T any](workers, n int, fn func(worker, index int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	var failed atomic.Bool
	ForWorker(workers, n, func(w, i int) {
		v, err := fn(w, i)
		if err != nil {
			errs[i] = err
			failed.Store(true)
			return
		}
		out[i] = v
	})
	if failed.Load() {
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
