package valuation

import (
	"context"
	"math"
	"testing"

	"share/internal/dataset"
	"share/internal/regress"
	"share/internal/stat"
)

// cleanAndNoisy builds a training set whose first half is clean linear data
// and second half is pure noise — so point quality is separable by
// construction.
func cleanAndNoisy(nClean, nNoisy int, seed int64) (*dataset.Dataset, *dataset.Dataset) {
	rng := stat.NewRand(seed)
	mk := func(n int, noisy bool) *dataset.Dataset {
		d := &dataset.Dataset{Features: []string{"x"}, Target: "y"}
		for i := 0; i < n; i++ {
			x := stat.Uniform(rng, 0, 10)
			y := 2 * x
			if noisy {
				y = stat.Uniform(rng, -20, 20)
			}
			d.X = append(d.X, x)
			d.Y = append(d.Y, y)
		}
		return d
	}
	train, _ := dataset.Concat(mk(nClean, false), mk(nNoisy, true))
	test := mk(200, false)
	return train, test
}

func TestPointShapleyRanksCleanAboveNoise(t *testing.T) {
	train, test := cleanAndNoisy(30, 30, 1)
	rng := stat.NewRand(2)
	scores, err := PointShapley(train, test, PointShapleyOptions{Permutations: 60}, rng)
	if err != nil {
		t.Fatalf("PointShapley: %v", err)
	}
	var cleanMean, noisyMean float64
	for i := 0; i < 30; i++ {
		cleanMean += scores[i]
	}
	for i := 30; i < 60; i++ {
		noisyMean += scores[i]
	}
	cleanMean /= 30
	noisyMean /= 30
	if cleanMean <= noisyMean {
		t.Errorf("clean mean SV %v should exceed noisy mean SV %v", cleanMean, noisyMean)
	}
}

func TestPointShapleyEfficiency(t *testing.T) {
	// Permutation sampling preserves efficiency: Σ SV = U(full) − U(∅).
	train, test := cleanAndNoisy(20, 10, 3)
	rng := stat.NewRand(4)
	scores, err := PointShapley(train, test, PointShapleyOptions{Permutations: 25, EvalSample: -1}, rng)
	if err != nil {
		t.Fatalf("PointShapley: %v", err)
	}
	var total float64
	for _, s := range scores {
		total += s
	}
	// The estimator's internal utility uses the ridge-damped incremental
	// solver, so it matches the QR batch fit only to ~1e-7.
	full := regress.ExplainedVariance(train, test)
	if math.Abs(total-full) > 1e-6 {
		t.Errorf("Σ SV = %v, want U(full) = %v (efficiency)", total, full)
	}
}

func TestPointShapleyValidation(t *testing.T) {
	train, test := cleanAndNoisy(5, 5, 5)
	if _, err := PointShapley(&dataset.Dataset{}, test, PointShapleyOptions{}, stat.NewRand(1)); err == nil {
		t.Error("accepted empty train")
	}
	if _, err := PointShapley(train, &dataset.Dataset{}, PointShapleyOptions{}, stat.NewRand(1)); err == nil {
		t.Error("accepted empty test")
	}
	if _, err := PointShapley(train, test, PointShapleyOptions{}, nil); err == nil {
		t.Error("accepted nil rng")
	}
}

func TestQualitySortOrdersDescending(t *testing.T) {
	train, test := cleanAndNoisy(25, 25, 6)
	rng := stat.NewRand(7)
	scores, err := QualitySort(train, test, PointShapleyOptions{Permutations: 40}, rng)
	if err != nil {
		t.Fatalf("QualitySort: %v", err)
	}
	for i := 1; i < len(scores); i++ {
		if scores[i] > scores[i-1]+1e-12 {
			t.Fatalf("scores not descending at %d: %v > %v", i, scores[i], scores[i-1])
		}
	}
	// The front of the sorted set should be dominated by clean points:
	// an OLS fit on the top half should beat one on the bottom half.
	top := train.Head(25)
	bottomIdx := make([]int, 25)
	for i := range bottomIdx {
		bottomIdx[i] = 25 + i
	}
	bottom := train.Subset(bottomIdx)
	evTop := regress.ExplainedVariance(top, test)
	evBottom := regress.ExplainedVariance(bottom, test)
	if evTop <= evBottom {
		t.Errorf("top-half EV %v should beat bottom-half EV %v", evTop, evBottom)
	}
}

func TestChunkUtilityMemoizes(t *testing.T) {
	train, test := cleanAndNoisy(20, 0, 8)
	chunks, err := dataset.PartitionEqual(train, 4)
	if err != nil {
		t.Fatalf("PartitionEqual: %v", err)
	}
	u := ChunkUtility(chunks, test)
	a := u([]int{0, 2})
	b := u([]int{0, 2})
	if a != b {
		t.Errorf("memoized utility differs: %v vs %v", a, b)
	}
	if u(nil) != u(nil) {
		t.Error("empty coalition unstable")
	}
	full := u([]int{0, 1, 2, 3})
	if full < 0.95 {
		t.Errorf("full-coalition EV = %v, want ≈1 on clean data", full)
	}
}

func TestSellerShapleyIdentifiesGoodSeller(t *testing.T) {
	// Seller 0 holds clean data, sellers 1–3 hold noise.
	clean, test := cleanAndNoisy(30, 0, 9)
	noisy, _ := cleanAndNoisy(0, 90, 10)
	chunks := []*dataset.Dataset{clean}
	parts, err := dataset.PartitionEqual(noisy, 3)
	if err != nil {
		t.Fatalf("PartitionEqual: %v", err)
	}
	chunks = append(chunks, parts...)
	sv, err := SellerShapleyKernelCtx(context.Background(), chunks, evalMoments(t, test), 40, 0, 11, 1)
	if err != nil {
		t.Fatalf("SellerShapleyKernelCtx: %v", err)
	}
	for i := 1; i < 4; i++ {
		if sv[0] <= sv[i] {
			t.Errorf("clean seller SV %v should exceed noisy seller %d SV %v", sv[0], i, sv[i])
		}
	}
}

func TestSellerShapleyTMCMatchesGeneric(t *testing.T) {
	train, test := cleanAndNoisy(40, 20, 12)
	chunks, err := dataset.PartitionEqual(train, 6)
	if err != nil {
		t.Fatalf("PartitionEqual: %v", err)
	}
	generic, err := MonteCarlo(6, ChunkUtility(chunks, test), 400, stat.NewRand(13))
	if err != nil {
		t.Fatalf("generic MC: %v", err)
	}
	fast, err := SellerShapleyTMC(chunks, test, 400, 0, stat.NewRand(14))
	if err != nil {
		t.Fatalf("SellerShapleyTMC: %v", err)
	}
	for i := range generic {
		if math.Abs(generic[i]-fast[i]) > 0.05 {
			t.Errorf("seller %d: generic %v vs incremental %v", i, generic[i], fast[i])
		}
	}
}

func TestSellerShapleyTMCTruncationPreservesRanking(t *testing.T) {
	clean, test := cleanAndNoisy(30, 0, 15)
	noisy, _ := cleanAndNoisy(0, 60, 16)
	parts, _ := dataset.PartitionEqual(noisy, 2)
	chunks := append([]*dataset.Dataset{clean}, parts...)
	sv, err := SellerShapleyTMC(chunks, test, 60, 0.01, stat.NewRand(17))
	if err != nil {
		t.Fatalf("SellerShapleyTMC: %v", err)
	}
	if sv[0] <= sv[1] || sv[0] <= sv[2] {
		t.Errorf("truncated TMC lost the ranking: %v", sv)
	}
}

func TestSellerShapleyTMCValidation(t *testing.T) {
	_, test := cleanAndNoisy(5, 0, 18)
	if _, err := SellerShapleyTMC(nil, test, 10, 0, stat.NewRand(1)); err == nil {
		t.Error("accepted no chunks")
	}
	empty := []*dataset.Dataset{{}}
	if _, err := SellerShapleyTMC(empty, test, 10, 0, stat.NewRand(1)); err == nil {
		t.Error("accepted all-empty chunks")
	}
	train, _ := cleanAndNoisy(4, 0, 19)
	chunks, _ := dataset.PartitionEqual(train, 2)
	if _, err := SellerShapleyTMC(chunks, &dataset.Dataset{}, 10, 0, stat.NewRand(1)); err == nil {
		t.Error("accepted empty test set")
	}
	if _, err := SellerShapleyTMC(chunks, test, 10, 0, nil); err == nil {
		t.Error("accepted nil rng")
	}
}
