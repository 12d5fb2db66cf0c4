package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"share/internal/core"
	"share/internal/dataset"
	"share/internal/market"
	"share/internal/regress"
	"share/internal/stat"
	"share/internal/translog"
	"share/internal/valuation"
)

// pr3Report is the BENCH_PR3.json document: the moment-cached Shapley
// valuation kernel as an isolated probe, plus the kernel end-to-end through
// a full trade round.
type pr3Report struct {
	GoMaxProcs int          `json:"gomaxprocs"`
	Workers    int          `json:"workers"`
	Benchmarks []benchEntry `json:"benchmarks"`
}

// kernelProbe is one (sellers, rows-per-chunk, permutations) point of the
// isolated kernel probe.
type kernelProbe struct {
	m, rows, perms int
}

// writeBenchPR3 runs the valuation-kernel performance probes via
// testing.Benchmark and writes BENCH_PR3.json into outDir. workers is the
// fan-out width for the parallel probes (≤0 → GOMAXPROCS).
func writeBenchPR3(outDir string, workers int, seed int64) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rep := &pr3Report{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Workers:    workers,
	}
	record := func(name string, w int, r testing.BenchmarkResult) {
		e := benchEntry{
			Name:        name,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			Workers:     w,
			Iterations:  r.N,
		}
		rep.Benchmarks = append(rep.Benchmarks, e)
		log.Printf("bench %-28s %12.0f ns/op  (%d iterations)", name, e.NsPerOp, r.N)
	}

	// Isolated kernel at several (m, rows, permutations) points. The rows
	// axis shows the kernel's O(k²) prefix step is independent of chunk
	// size.
	for _, p := range []kernelProbe{
		{m: 20, rows: 50, perms: 50},
		{m: 100, rows: 60, perms: 100},
		{m: 100, rows: 240, perms: 100},
	} {
		rng := stat.NewRand(seed)
		train := dataset.SyntheticCCPP(p.m*p.rows, rng)
		test := dataset.SyntheticCCPP(500, rng)
		chunks, err := dataset.PartitionEqual(train, p.m)
		if err != nil {
			return err
		}
		eval, err := regress.NewEvalMoments(test)
		if err != nil {
			return err
		}
		record(fmt.Sprintf("shapley_kernel_m%d_rows%d", p.m, p.rows), 1, testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := valuation.SellerShapleyKernelCtx(context.Background(), chunks, eval, p.perms, 0, seed, 1); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}

	// End-to-end trade round at the acceptance point (m=100, 100
	// permutations): the full Algorithm 1 including strategy solve, LDP
	// perturbation and production, single-threaded and fanned out.
	round := func(upd *market.WeightUpdate) testing.BenchmarkResult {
		rng := stat.NewRand(seed)
		full := dataset.SyntheticCCPP(100*60+500, rng)
		train, test := full.Split(100 * 60)
		chunks, err := dataset.PartitionEqual(train, 100)
		if err != nil {
			log.Fatalf("bench round setup: %v", err)
		}
		sellers := make([]*market.Seller, 100)
		for i := range sellers {
			sellers[i] = &market.Seller{
				ID:     fmt.Sprintf("S%d", i),
				Lambda: stat.UniformOpen(rng, 0, 1),
				Data:   chunks[i],
			}
		}
		mkt, err := market.New(sellers, market.Config{
			Cost:    translog.PaperDefaults(),
			TestSet: test,
			Update:  upd,
			Seed:    seed,
		})
		if err != nil {
			log.Fatalf("bench round setup: %v", err)
		}
		buyer := core.PaperBuyer()
		buyer.N = float64(100 * 30)
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mkt.RunRound(buyer); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	record("runround_m100_kernel", 1,
		round(&market.WeightUpdate{Retain: 0.2, Permutations: 100, Workers: 1}))
	record(fmt.Sprintf("runround_m100_kernel_w%d", workers), workers,
		round(&market.WeightUpdate{Retain: 0.2, Permutations: 100, Workers: workers}))

	path := filepath.Join(outDir, "BENCH_PR3.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	log.Printf("wrote %s", path)
	return nil
}
