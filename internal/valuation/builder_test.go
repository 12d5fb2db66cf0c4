package valuation

import (
	"context"
	"math"
	"testing"

	"share/internal/dataset"
	"share/internal/product"
)

// TestSellerShapleyBuilderMatchesTMCForOLS: the builder estimator retraining
// the OLS product on every prefix, the moment-cached kernel and the
// seed-era SellerShapleyTMC all walk the same permutations from the same
// seed, so the builder differs from the two truncated-Monte-Carlo estimators
// only by the product's [0,1] clamp and the kernel's ridge damping.
func TestSellerShapleyBuilderMatchesTMCForOLS(t *testing.T) {
	chunks, test := kernelFixture(t, 5, 20, 100, 25)
	ctx := context.Background()
	generic, err := SellerShapleyBuilderParallelCtx(ctx, chunks, test, product.OLS{}, 400, 0, 3, 2)
	if err != nil {
		t.Fatalf("builder estimator: %v", err)
	}
	kernel, err := SellerShapleyKernelCtx(ctx, chunks, evalMoments(t, test), 400, 0, 3, 2)
	if err != nil {
		t.Fatalf("kernel: %v", err)
	}
	tmc := seedPathOracle(t, chunks, test, 400, 0, 3)
	for i := range generic {
		if math.Abs(generic[i]-kernel[i]) > 0.05 {
			t.Errorf("seller %d: builder %v vs kernel %v", i, generic[i], kernel[i])
		}
		if math.Abs(generic[i]-tmc[i]) > 0.05 {
			t.Errorf("seller %d: builder %v vs SellerShapleyTMC %v", i, generic[i], tmc[i])
		}
	}
}

func TestSellerShapleyBuilderValidation(t *testing.T) {
	train, test := cleanAndNoisy(10, 0, 36)
	chunks, _ := dataset.PartitionEqual(train, 2)
	ctx := context.Background()
	if _, err := SellerShapleyBuilderParallelCtx(ctx, nil, test, product.OLS{}, 10, 0, 1, 2); err == nil {
		t.Error("accepted no chunks")
	}
	if _, err := SellerShapleyBuilderParallelCtx(ctx, chunks, test, nil, 10, 0, 1, 2); err == nil {
		t.Error("accepted nil builder")
	}
	if _, err := SellerShapleyBuilderParallelCtx(ctx, chunks, &dataset.Dataset{}, product.OLS{}, 10, 0, 1, 2); err == nil {
		t.Error("accepted empty test set")
	}
}

// sizeBuilder scores a coalition by its row count and allocates nothing,
// so a Shapley estimate over it counts only the estimator's own garbage.
type sizeBuilder struct{}

func (sizeBuilder) Name() string { return "size" }

func (sizeBuilder) Build(train, test *dataset.Dataset) (product.Report, error) {
	return product.Report{Performance: float64(train.Len()) / 1e4}, nil
}

// TestBuilderShapleyJoinsInPlace: the builder estimator joins every
// coalition's chunks into its worker's reused block, so an estimate
// allocates the same handful of objects whatever the permutation count.
// Joining with dataset.Concat cost three allocations per coalition: 78
// allocations at 2 permutations here and 726 at 20, against 5 and 5.
func TestBuilderShapleyJoinsInPlace(t *testing.T) {
	chunks, test := kernelFixture(t, 12, 30, 100, 41)
	ctx := context.Background()
	estimate := func(permutations int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := SellerShapleyBuilderParallelCtx(ctx, chunks, test, sizeBuilder{}, permutations, 0, 5, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := estimate(2), estimate(20)
	if many != few || many > 8 {
		t.Errorf("an estimate allocates %v objects at 2 permutations and %v at 20, want the same handful", few, many)
	}
}
