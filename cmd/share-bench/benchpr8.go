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
	"share/internal/solve"
	"share/internal/stat"
)

// Committed BENCH_PR4.json reference numbers for the general backend's
// per-round solve (same probe shape: prototype Clone → SetBuyer → Solve,
// quadratic loss, PriceTol 1e-4). The pre-optimization cascade takes ~10
// minutes per m=1000 solve, so the before/after compares against the
// recorded trajectory instead of re-running it live.
const (
	pr4GeneralM100NsPerOp  = 1_709_690_311.0
	pr4GeneralM1000NsPerOp = 593_434_301_975.0
)

// pr8Probe is one general-backend latency measurement with the Stage-3
// effort counters of a representative solve attached.
type pr8Probe struct {
	benchEntry
	Loss         string `json:"loss"`
	M            int    `json:"m"`
	Mode         string `json:"mode"` // "fast" | "fast_warm"
	Stage3Solves int    `json:"stage3_solves"`
	Stage3Sweeps int    `json:"stage3_sweeps"`
	MemoHits     int    `json:"memo_hits"`
}

// pr8Report is the BENCH_PR8.json document: latency of the general
// equilibrium backend across loss functions and market sizes, against the
// committed BENCH_PR4.json numbers. "fast" probes clone a cold prototype
// per iteration (exactly the BENCH_PR4.json probe shape, so the
// speedups_vs_pr4 ratios are apples to apples); "fast_warm" re-solves one
// Prepared so successive rounds chain warm starts, the shape a long-lived
// market sees.
type pr8Report struct {
	GoMaxProcs             int                `json:"gomaxprocs"`
	Workers                int                `json:"workers"`
	PR4GeneralM100NsPerOp  float64            `json:"pr4_round_general_m100_ns_per_op"`
	PR4GeneralM1000NsPerOp float64            `json:"pr4_round_general_m1000_ns_per_op"`
	Benchmarks             []pr8Probe         `json:"benchmarks"`
	Speedups               map[string]float64 `json:"speedups"`
}

// writeBenchPR8 runs the general-backend probes and writes BENCH_PR8.json
// into outDir. Speedups are reported against the committed BENCH_PR4.json
// measurements; the pre-optimization cascade survives only as the
// equivalence oracle in internal/core's tests.
func writeBenchPR8(outDir string, workers int, seed int64) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rep := &pr8Report{
		GoMaxProcs:             runtime.GOMAXPROCS(0),
		Workers:                workers,
		PR4GeneralM100NsPerOp:  pr4GeneralM100NsPerOp,
		PR4GeneralM1000NsPerOp: pr4GeneralM1000NsPerOp,
		Speedups:               map[string]float64{},
	}

	losses := []struct {
		name string
		fn   func(g *core.Game) core.LossFunc
	}{
		{"quadratic", nil}, // backend default, Eq. 11
		{"alternative", func(g *core.Game) core.LossFunc { return g.AlternativeLoss() }},
		{"cubic", func(g *core.Game) core.LossFunc { return g.CubicLoss() }},
	}

	record := func(name, loss, mode string, m int, proto solve.Prepared, warm bool) (pr8Probe, error) {
		buyer := core.PaperBuyer()
		// warm probes re-solve one long-lived Prepared so the warm-start
		// chain carries across iterations; cold probes clone per iteration.
		prep := proto.Clone()
		prep.SetBuyer(buyer)
		var stats core.GeneralStats
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !warm {
					prep = proto.Clone()
					prep.SetBuyer(buyer)
				}
				prof, err := prep.Solve(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				stats = *prof.Effort
			}
		})
		p := pr8Probe{
			benchEntry: benchEntry{
				Name:        name,
				NsPerOp:     float64(r.NsPerOp()),
				AllocsPerOp: r.AllocsPerOp(),
				Workers:     workers,
				Iterations:  r.N,
			},
			Loss:         loss,
			M:            m,
			Mode:         mode,
			Stage3Solves: stats.Stage3Solves,
			Stage3Sweeps: stats.Stage3Sweeps,
			MemoHits:     stats.MemoHits,
		}
		rep.Benchmarks = append(rep.Benchmarks, p)
		log.Printf("bench %-36s %14.0f ns/op  (%d iterations, %d stage-3 solves)",
			name, p.NsPerOp, r.N, stats.Stage3Solves)
		return p, nil
	}

	for _, m := range []int{100, 1000} {
		g := core.PaperGame(m, stat.NewRand(seed))
		for _, l := range losses {
			fast := solve.General{LossFor: l.fn, PriceTol: 1e-4, Workers: workers}
			proto, err := fast.Precompute(g)
			if err != nil {
				return fmt.Errorf("bench-pr8: %s m=%d: %w", l.name, m, err)
			}
			label := fmt.Sprintf("round_general_%s_m%d", l.name, m)
			cold, err := record(label, l.name, "fast", m, proto, false)
			if err != nil {
				return err
			}
			warm, err := record(label+"_warm", l.name, "fast_warm", m, proto, true)
			if err != nil {
				return err
			}
			if l.name == "quadratic" {
				pr4 := pr4GeneralM100NsPerOp
				if m == 1000 {
					pr4 = pr4GeneralM1000NsPerOp
				}
				rep.Speedups[fmt.Sprintf("round_general_m%d_vs_pr4", m)] = pr4 / cold.NsPerOp
				rep.Speedups[fmt.Sprintf("round_general_m%d_warm_vs_pr4", m)] = pr4 / warm.NsPerOp
			}
		}
	}

	path := filepath.Join(outDir, "BENCH_PR8.json")
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
	log.Printf("wrote %s (vs PR4: m=100 %.0fx, m=1000 %.0fx)",
		path, rep.Speedups["round_general_m100_vs_pr4"], rep.Speedups["round_general_m1000_vs_pr4"])
	return nil
}
