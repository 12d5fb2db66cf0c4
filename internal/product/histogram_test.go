package product

import (
	"testing"

	"share/internal/dataset"
	"share/internal/stat"
)

func TestHistogramPerfectOnSameDistribution(t *testing.T) {
	train, test := ccppSplit(t, 6000, 20)
	rep, err := Histogram{}.Build(train, test)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if rep.Performance < 0.9 {
		t.Errorf("same-distribution histogram fidelity = %v", rep.Performance)
	}
	if _, ok := rep.Detail["total_variation"]; !ok {
		t.Error("missing total_variation detail")
	}
}

func TestHistogramDetectsShift(t *testing.T) {
	train, test := ccppSplit(t, 3000, 21)
	shifted := train.Clone()
	for i := range shifted.Y {
		shifted.Y[i] += 40 // push most mass into the top bin
	}
	clean, err := Histogram{}.Build(train, test)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := Histogram{}.Build(shifted, test)
	if err != nil {
		t.Fatal(err)
	}
	if bad.Performance >= clean.Performance {
		t.Errorf("shifted histogram scored %v ≥ clean %v", bad.Performance, clean.Performance)
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	_, test := ccppSplit(t, 500, 22)
	if _, err := (Histogram{}).Build(test, &dataset.Dataset{}); err == nil {
		t.Error("accepted empty test set")
	}
	rep, err := Histogram{}.Build(&dataset.Dataset{}, test)
	if err != nil || rep.Performance != 0 {
		t.Errorf("empty train: rep=%+v err=%v", rep, err)
	}
	constant, err := dataset.FromRows([][]float64{{1}, {1}}, []float64{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Histogram{}).Build(constant, constant); err == nil {
		t.Error("accepted a degenerate target range")
	}
	// Out-of-range values land in edge bins rather than panicking.
	train := test.Clone()
	train.Y[0] = -1e9
	train.Y[1] = 1e9
	if _, err := (Histogram{Bins: 5}).Build(train, test); err != nil {
		t.Errorf("out-of-range values should clamp: %v", err)
	}
}

func TestHistogramBinsParameter(t *testing.T) {
	rng := stat.NewRand(23)
	train := dataset.SyntheticCCPP(2000, rng)
	test := dataset.SyntheticCCPP(2000, rng)
	coarse, err := Histogram{Bins: 2}.Build(train, test)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := Histogram{Bins: 50}.Build(train, test)
	if err != nil {
		t.Fatal(err)
	}
	// Finer bins are strictly harder to match: TV distance can only grow
	// under refinement.
	if fine.Performance > coarse.Performance+1e-9 {
		t.Errorf("finer bins scored higher: %v vs %v", fine.Performance, coarse.Performance)
	}
}
