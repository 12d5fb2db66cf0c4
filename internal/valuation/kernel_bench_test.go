package valuation

import (
	"context"
	"fmt"
	"testing"

	"share/internal/dataset"
	"share/internal/stat"
)

// benchChunks builds m CCPP chunks of rows each plus a 500-row test set.
func benchChunks(b *testing.B, m, rows int) ([]*dataset.Dataset, *dataset.Dataset) {
	b.Helper()
	rng := stat.NewRand(42)
	train := dataset.SyntheticCCPP(m*rows, rng)
	test := dataset.SyntheticCCPP(500, rng)
	chunks, err := dataset.PartitionEqual(train, m)
	if err != nil {
		b.Fatal(err)
	}
	return chunks, test
}

// BenchmarkSellerShapley compares the seed-era row-streaming estimator
// against the moment-cached kernel at several (m, rows, permutations)
// points. The rows axis is the kernel's headline: its prefix step is O(k²)
// regardless of chunk size, while the streaming path re-ingests every row.
func BenchmarkSellerShapley(b *testing.B) {
	points := []struct {
		m, rows, perms int
	}{
		{20, 50, 50},
		{100, 60, 100},
		{100, 240, 100},
	}
	for _, p := range points {
		chunks, test := benchChunks(b, p.m, p.rows)
		label := fmt.Sprintf("m%d_rows%d_p%d", p.m, p.rows, p.perms)
		b.Run("seed/"+label, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SellerShapleyTMC(chunks, test, p.perms, 0, stat.NewRand(1)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("kernel/"+label, func(b *testing.B) {
			eval := evalMoments(b, test)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SellerShapleyKernelCtx(context.Background(), chunks, eval, p.perms, 0, 1, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSellerShapleyWorkers probes permutation fan-out scaling of the
// kernel at the acceptance point (m=100, 100 permutations). On a single-core
// host all widths coincide; the outputs are bitwise identical regardless.
func BenchmarkSellerShapleyWorkers(b *testing.B) {
	chunks, test := benchChunks(b, 100, 60)
	eval := evalMoments(b, test)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SellerShapleyKernelCtx(context.Background(), chunks, eval, 100, 0, 1, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
