package valuation

import (
	"context"
	"math"
	"testing"

	"share/internal/dataset"
	"share/internal/product"
	"share/internal/regress"
	"share/internal/stat"
)

// kernelFixture builds a CCPP-backed chunk set: realistic feature scales so
// the moment-vs-row-streaming comparison exercises genuine cancellation.
func kernelFixture(t *testing.T, m, rowsPerChunk, testRows int, seed int64) ([]*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	rng := stat.NewRand(seed)
	train := dataset.SyntheticCCPP(m*rowsPerChunk, rng)
	test := dataset.SyntheticCCPP(testRows, rng)
	chunks, err := dataset.PartitionEqual(train, m)
	if err != nil {
		t.Fatal(err)
	}
	return chunks, test
}

// seedPathOracle averages one SellerShapleyTMC permutation per
// stat.NewRand(seed+p): the seed-era row-streaming estimator walking exactly
// the permutations the kernel draws.
func seedPathOracle(t *testing.T, chunks []*dataset.Dataset, test *dataset.Dataset, perms int, tol float64, seed int64) []float64 {
	t.Helper()
	sv := make([]float64, len(chunks))
	for p := 0; p < perms; p++ {
		one, err := SellerShapleyTMC(chunks, test, 1, tol, stat.NewRand(seed+int64(p)))
		if err != nil {
			t.Fatalf("seed-path oracle: %v", err)
		}
		for i, v := range one {
			sv[i] += v
		}
	}
	for i := range sv {
		sv[i] /= float64(perms)
	}
	return sv
}

// requireKernelMatchesSeedPath runs the kernel at workers 1, 2 and 8 and
// requires each run to agree with seedPathOracle to ≤1e-9 per seller — the
// moment merge only changes floating-point association order — and the
// runs to agree with each other bit for bit. It returns the kernel's values.
func requireKernelMatchesSeedPath(t *testing.T, chunks []*dataset.Dataset, test *dataset.Dataset, perms int, tol float64, seed int64) []float64 {
	t.Helper()
	want := seedPathOracle(t, chunks, test, perms, tol, seed)
	var first []float64
	for _, workers := range []int{1, 2, 8} {
		sv, err := SellerShapleyKernelCtx(context.Background(), chunks, evalMoments(t, test), perms, tol, seed, workers)
		if err != nil {
			t.Fatalf("kernel workers=%d: %v", workers, err)
		}
		for i := range want {
			if d := math.Abs(sv[i] - want[i]); d > 1e-9 {
				t.Errorf("workers=%d seller %d: kernel %v vs seed path %v (Δ=%g)", workers, i, sv[i], want[i], d)
			}
		}
		if first == nil {
			first = sv
			continue
		}
		requireBitIdentical(t, "kernel across workers", sv, first)
	}
	return first
}

// TestKernelEquivalence is the cross-estimator agreement gate: the
// moment-cached kernel against the seed-era row-streaming estimator on the
// same permutations, with and without truncation.
func TestKernelEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		tol  float64
	}{
		{"plain", 0},
		{"truncated", 0.01},
	} {
		t.Run(tc.name, func(t *testing.T) {
			chunks, test := kernelFixture(t, 12, 30, 300, 21)
			requireKernelMatchesSeedPath(t, chunks, test, 50, tc.tol, 9)
		})
	}
}

// TestMomentKernelMatchesSeedPathUnderTruncation drives a fixture where
// truncation genuinely fires (one dominant clean chunk) and checks the
// kernel still walks the seed path's truncation decisions.
func TestMomentKernelMatchesSeedPathUnderTruncation(t *testing.T) {
	clean, test := cleanAndNoisy(40, 0, 31)
	noisy, _ := cleanAndNoisy(0, 80, 32)
	parts, err := dataset.PartitionEqual(noisy, 3)
	if err != nil {
		t.Fatal(err)
	}
	chunks := append([]*dataset.Dataset{clean}, parts...)
	const tol = 0.05
	if equalBits(seedPathOracle(t, chunks, test, 40, 0, 5), seedPathOracle(t, chunks, test, 40, tol, 5)) {
		t.Fatal("truncation never fired on this fixture")
	}
	sv := requireKernelMatchesSeedPath(t, chunks, test, 40, tol, 5)
	if sv[0] <= sv[1] || sv[0] <= sv[2] {
		t.Errorf("clean chunk not ranked first: %v", sv)
	}
}

func TestKernelCancellation(t *testing.T) {
	chunks, test := kernelFixture(t, 8, 20, 100, 22)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SellerShapleyKernelCtx(ctx, chunks, evalMoments(t, test), 200, 0, 1, 4); err == nil {
		t.Error("canceled kernel returned no error")
	}
	if _, err := SellerShapleyBuilderParallelCtx(ctx, chunks, test, product.OLS{}, 200, 0, 1, 4); err == nil {
		t.Error("canceled parallel builder estimator returned no error")
	}
}

func TestKernelValidation(t *testing.T) {
	chunks, test := kernelFixture(t, 4, 10, 50, 23)
	if _, err := SellerShapleyKernelCtx(context.Background(), nil, evalMoments(t, test), 10, 0, 1, 2); err == nil {
		t.Error("accepted no chunks")
	}
	if _, err := SellerShapleyKernelCtx(context.Background(), chunks, nil, 10, 0, 1, 2); err == nil {
		t.Error("accepted no test-set moments")
	}
	if _, err := SellerShapleyKernelCtx(context.Background(), []*dataset.Dataset{{}, {}}, evalMoments(t, test), 10, 0, 1, 2); err == nil {
		t.Error("accepted all-empty chunks")
	}
}

// TestBuilderParallelDeterministicAcrossWorkers pins the builder-generic
// parallel path to the repo determinism convention.
func TestBuilderParallelDeterministicAcrossWorkers(t *testing.T) {
	chunks, test := kernelFixture(t, 6, 15, 80, 24)
	var first []float64
	for _, workers := range []int{1, 2, 8} {
		sv, err := SellerShapleyBuilderParallelCtx(context.Background(), chunks, test, product.MeanVector{}, 20, 0, 7, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if first == nil {
			first = sv
			continue
		}
		for i := range sv {
			if sv[i] != first[i] {
				t.Errorf("workers=%d changed result at %d: %v vs %v", workers, i, sv[i], first[i])
			}
		}
	}
}

// TestBuilderParallelMatchesSerialEstimate: same estimator, different
// permutation streams — a serial run on another seed agrees statistically
// with the parallel run on a well-separated fixture.
func TestBuilderParallelMatchesSerialEstimate(t *testing.T) {
	chunks, test := kernelFixture(t, 5, 20, 100, 25)
	par, err := SellerShapleyBuilderParallelCtx(context.Background(), chunks, test, product.OLS{}, 400, 0, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := SellerShapleyBuilderParallelCtx(context.Background(), chunks, test, product.OLS{}, 400, 0, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range par {
		if math.Abs(par[i]-seq[i]) > 0.1 {
			t.Errorf("seller %d: parallel %v vs serial %v", i, par[i], seq[i])
		}
	}
}

func TestParallelDeterministicAcrossWorkerCounts(t *testing.T) {
	train, test := cleanAndNoisy(60, 30, 50)
	chunks, err := dataset.PartitionEqual(train, 9)
	if err != nil {
		t.Fatal(err)
	}
	var first []float64
	for _, workers := range []int{1, 2, 4, 16} {
		sv, err := SellerShapleyKernelCtx(context.Background(), chunks, evalMoments(t, test), 40, 0, 77, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if first == nil {
			first = sv
			continue
		}
		for i := range sv {
			if sv[i] != first[i] {
				t.Fatalf("workers=%d changed result at %d: %v vs %v", workers, i, sv[i], first[i])
			}
		}
	}
}

func TestParallelMatchesSequentialEstimate(t *testing.T) {
	// Different permutation streams, so only statistical agreement is
	// expected — both are unbiased estimators of the same values.
	train, test := cleanAndNoisy(60, 30, 51)
	chunks, err := dataset.PartitionEqual(train, 6)
	if err != nil {
		t.Fatal(err)
	}
	par, err := SellerShapleyKernelCtx(context.Background(), chunks, evalMoments(t, test), 400, 0, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := SellerShapleyTMC(chunks, test, 400, 0, stat.NewRand(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := range par {
		if math.Abs(par[i]-seq[i]) > 0.06 {
			t.Errorf("seller %d: parallel %v vs sequential %v", i, par[i], seq[i])
		}
	}
}

func TestParallelTruncationStillRanks(t *testing.T) {
	clean, test := cleanAndNoisy(30, 0, 52)
	noisy, _ := cleanAndNoisy(0, 60, 53)
	parts, err := dataset.PartitionEqual(noisy, 2)
	if err != nil {
		t.Fatal(err)
	}
	chunks := append([]*dataset.Dataset{clean}, parts...)
	sv, err := SellerShapleyKernelCtx(context.Background(), chunks, evalMoments(t, test), 60, 0.01, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sv[0] <= sv[1] || sv[0] <= sv[2] {
		t.Errorf("ranking lost under parallel truncation: %v", sv)
	}
}

// TestParallelValidation: the redundancy entry point shares the kernel's
// input checks and returns neither values nor redundancies on bad input.
func TestParallelValidation(t *testing.T) {
	_, test := cleanAndNoisy(5, 0, 54)
	train, _ := cleanAndNoisy(4, 0, 55)
	chunks, _ := dataset.PartitionEqual(train, 2)
	eval := evalMoments(t, test)
	for _, tc := range []struct {
		name   string
		chunks []*dataset.Dataset
		eval   *regress.EvalMoments
	}{
		{"no chunks", nil, eval},
		{"no test-set moments", chunks, nil},
		{"all-empty chunks", []*dataset.Dataset{{}, {}}, eval},
	} {
		sv, red, err := SellerShapleyKernelRedundancyCtx(context.Background(), tc.chunks, tc.eval, 10, 0, 1, 2)
		if err == nil {
			t.Errorf("accepted %s", tc.name)
		}
		if sv != nil || red != nil {
			t.Errorf("%s: returned values %v and redundancies %v with the error", tc.name, sv, red)
		}
	}
}
