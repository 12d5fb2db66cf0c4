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
	kernel, err := SellerShapleyKernelCtx(ctx, chunks, test, 400, 0, 3, 2)
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
