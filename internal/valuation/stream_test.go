package valuation

import (
	"context"
	"math"
	"testing"

	"share/internal/dataset"
	"share/internal/product"
	"share/internal/stat"
)

// kernelStreamOracle is the kernel fan-out drawing its permutations the
// way the seed+index convention is defined: a fresh stat.NewRand(seed+p)
// and stat.Perm for every permutation p, run in order, with the same arena
// and in-order reduction.
func kernelStreamOracle(t *testing.T, chunks []*dataset.Dataset, test *dataset.Dataset, perms int, tol float64, seed int64) []float64 {
	t.Helper()
	kn, err := newMomentKernel(chunks, test)
	if err != nil {
		t.Fatal(err)
	}
	var grand float64
	if tol > 0 {
		grand = kn.grand()
	}
	sc := kn.newScratch()
	arena := make([]float64, perms*kn.m)
	for p := 0; p < perms; p++ {
		rng := stat.NewRand(seed + int64(p))
		kn.scan(sc, stat.Perm(rng, kn.m), arena[p*kn.m:(p+1)*kn.m], grand, tol)
	}
	return reduceArena(arena, perms, kn.m)
}

// builderStreamOracle is SellerShapleyBuilderParallelCtx's estimator run
// sequentially with a fresh stat.NewRand(seed+p) per permutation.
func builderStreamOracle(t *testing.T, chunks []*dataset.Dataset, test *dataset.Dataset, b product.Builder, perms int, tol float64, seed int64) []float64 {
	t.Helper()
	m := len(chunks)
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
	if tol > 0 {
		full := make([]int, m)
		for i := range full {
			full[i] = i
		}
		grand = utility(full)
	}
	empty := utility(nil)
	arena := make([]float64, perms*m)
	for p := 0; p < perms; p++ {
		rng := stat.NewRand(seed + int64(p))
		credit := arena[p*m : (p+1)*m]
		var coalition []int
		prev := empty
		for _, idx := range stat.Perm(rng, m) {
			coalition = insertSorted(coalition, idx)
			cur := utility(coalition)
			credit[idx] += cur - prev
			prev = cur
			if tol > 0 && math.Abs(grand-cur) <= tol {
				break
			}
		}
	}
	return reduceArena(arena, perms, m)
}

func reduceArena(arena []float64, perms, m int) []float64 {
	sv := make([]float64, m)
	for p := 0; p < perms; p++ {
		for i, v := range arena[p*m : (p+1)*m] {
			sv[i] += v
		}
	}
	inv := 1 / float64(perms)
	for i := range sv {
		sv[i] *= inv
	}
	return sv
}

func requireBitIdentical(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, oracle %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s: seller %d = %v, oracle %v", what, i, got[i], want[i])
		}
	}
}

// TestPerWorkerStreamsMatchPerPermutationRngs pins the per-worker re-seeded
// permutation sources to the stream they replace: every estimator built on
// the seed+index convention returns the oracle's values bit for bit, for
// every worker count, with and without truncation.
func TestPerWorkerStreamsMatchPerPermutationRngs(t *testing.T) {
	const seed, perms = 77, 40
	chunks, test := kernelFixture(t, 9, 20, 150, 26)
	for _, tc := range []struct {
		name       string
		kernelTol  float64
		builderTol float64
	}{
		{"plain", 0, 0},
		{"truncated", 0.01, 0.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kernelWant := kernelStreamOracle(t, chunks, test, perms, tc.kernelTol, seed)
			builderWant := builderStreamOracle(t, chunks, test, product.MeanVector{}, perms, tc.builderTol, seed)
			if tc.kernelTol > 0 {
				// The truncated case must actually truncate, or it pins
				// nothing the plain case does not.
				if plain := kernelStreamOracle(t, chunks, test, perms, 0, seed); equalBits(plain, kernelWant) {
					t.Fatal("kernel truncation never fired on this fixture")
				}
				if plain := builderStreamOracle(t, chunks, test, product.MeanVector{}, perms, 0, seed); equalBits(plain, builderWant) {
					t.Fatal("builder truncation never fired on this fixture")
				}
			}
			ctx := context.Background()
			for _, workers := range []int{1, 2, 8} {
				sv, err := SellerShapleyKernelCtx(ctx, chunks, test, perms, tc.kernelTol, seed, workers)
				if err != nil {
					t.Fatal(err)
				}
				requireBitIdentical(t, "SellerShapleyKernelCtx", sv, kernelWant)
				sv, _, err = SellerShapleyKernelRedundancyCtx(ctx, chunks, test, perms, tc.kernelTol, seed, workers)
				if err != nil {
					t.Fatal(err)
				}
				requireBitIdentical(t, "SellerShapleyKernelRedundancyCtx", sv, kernelWant)
				sv, err = SellerShapleyBuilderParallelCtx(ctx, chunks, test, product.MeanVector{}, perms, tc.builderTol, seed, workers)
				if err != nil {
					t.Fatal(err)
				}
				requireBitIdentical(t, "SellerShapleyBuilderParallelCtx", sv, builderWant)
			}
		})
	}
}

func equalBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// newMomentKernel is a fresh kernel loaded with chunks and test.
func newMomentKernel(chunks []*dataset.Dataset, test *dataset.Dataset) (*momentKernel, error) {
	kn := new(momentKernel)
	if err := kn.load(chunks, test); err != nil {
		return nil, err
	}
	return kn, nil
}
