package valuation

import (
	"context"
	"math"
	"testing"

	"share/internal/dataset"
	"share/internal/regress"
	"share/internal/stat"
)

// rowsDataset builds a dataset from explicit rows; no rows give an empty
// dataset.
func rowsDataset(x [][]float64, y []float64) *dataset.Dataset {
	if len(x) == 0 {
		return &dataset.Dataset{}
	}
	d, err := dataset.FromRows(x, y)
	if err != nil {
		panic(err)
	}
	return d
}

// TestRedundancyDuplicatesScoreHigh: two sellers holding copies of the
// same data are fully redundant against each other while an independent
// third seller scores lower; empty sellers score zero.
func TestRedundancyDuplicatesScoreHigh(t *testing.T) {
	rng := stat.NewRand(11)
	base := make([][]float64, 60)
	y := make([]float64, 60)
	other := make([][]float64, 60)
	oy := make([]float64, 60)
	for i := range base {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		base[i] = []float64{a, b}
		y[i] = 2*a - b
		// Independent structure: different covariance and response map.
		c, d := rng.NormFloat64(), rng.NormFloat64()
		other[i] = []float64{3 * c, 0.2 * d}
		oy[i] = -c + 4*d
	}
	chunks := []*dataset.Dataset{
		rowsDataset(base, y),
		rowsDataset(base, y), // exact duplicate of seller 0
		rowsDataset(other, oy),
		rowsDataset(nil, nil), // empty
	}
	moments := make([]*regress.Moments, len(chunks))
	for i, c := range chunks {
		moments[i] = regress.DatasetMoments(c, 2)
	}
	red := Redundancy(moments)
	if red[0] < 0.999999 || red[1] < 0.999999 {
		t.Fatalf("duplicate sellers redundancy = %v, want ~1", red[:2])
	}
	if red[2] >= red[0] {
		t.Fatalf("independent seller redundancy %v not below duplicates' %v", red[2], red[0])
	}
	if red[3] != 0 {
		t.Fatalf("empty seller redundancy = %v, want 0", red[3])
	}
	for i, r := range red {
		if r < 0 || r > 1 || math.IsNaN(r) {
			t.Fatalf("redundancy[%d] = %v out of [0,1]", i, r)
		}
	}

	// The dataset-direct path agrees with the moments path.
	direct := DatasetRedundancy(chunks)
	for i := range red {
		if math.Abs(direct[i]-red[i]) > 1e-15 {
			t.Fatalf("DatasetRedundancy[%d] = %v, Redundancy = %v", i, direct[i], red[i])
		}
	}
}

// TestRedundancyScaleFree: the same distribution at different row counts
// is still near-duplicate — the per-row normalization removes size.
func TestRedundancyScaleFree(t *testing.T) {
	rng := stat.NewRand(7)
	mk := func(n int) *dataset.Dataset {
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := range x {
			a, b := rng.NormFloat64(), rng.NormFloat64()
			x[i] = []float64{a, b}
			y[i] = a + b
		}
		return rowsDataset(x, y)
	}
	red := DatasetRedundancy([]*dataset.Dataset{mk(2000), mk(200)})
	if red[0] < 0.95 || red[1] < 0.95 {
		t.Fatalf("same-distribution sellers at different sizes: redundancy = %v, want > 0.95", red)
	}
}

// TestDatasetRedundancyAllEmpty: no rows anywhere yields all zeros, not a
// panic.
func TestDatasetRedundancyAllEmpty(t *testing.T) {
	red := DatasetRedundancy([]*dataset.Dataset{rowsDataset(nil, nil), rowsDataset(nil, nil)})
	for i, r := range red {
		if r != 0 {
			t.Fatalf("empty redundancy[%d] = %v", i, r)
		}
	}
}

// TestKernelRedundancyMatchesShapley: the combined entry point returns the
// same Shapley values as the plain kernel (bit-identical — same seed, same
// reduction) plus the redundancy vector from the cached moments.
func TestKernelRedundancyMatchesShapley(t *testing.T) {
	rng := stat.NewRand(3)
	n := 120
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		x[i] = []float64{a, b}
		y[i] = 3*a - 2*b + 0.1*rng.NormFloat64()
	}
	full := rowsDataset(x, y)
	chunks, err := dataset.PartitionEqual(full.Head(90), 3)
	if err != nil {
		t.Fatal(err)
	}
	test := rowsDataset(x[90:], y[90:])

	const seed, perms = 42, 16
	sv, err := SellerShapleyKernelCtx(context.Background(), chunks, evalMoments(t, test), perms, 0, seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	sv2, red, err := SellerShapleyKernelRedundancyCtx(context.Background(), chunks, evalMoments(t, test), perms, 0, seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sv {
		if sv[i] != sv2[i] {
			t.Fatalf("shapley[%d]: %v != %v (redundancy variant diverged)", i, sv[i], sv2[i])
		}
	}
	want := DatasetRedundancy(chunks)
	for i := range red {
		if math.Abs(red[i]-want[i]) > 1e-12 {
			t.Fatalf("redundancy[%d] = %v, want %v", i, red[i], want[i])
		}
	}
}
