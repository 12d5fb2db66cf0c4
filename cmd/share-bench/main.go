// Command share-bench regenerates every figure of the paper's evaluation
// (§6) as CSV, one file per figure, into an output directory:
//
//	fig2a.csv, fig2b.csv, fig2c.csv   effectiveness (profit vs deviation)
//	fig3a.csv, fig3b.csv              efficiency (runtime vs m, ±Shapley)
//	fig4a/b ... fig8a/b .csv          parameter sensitivity sweeps
//	meanfield.csv                     Theorem 5.1 error analysis
//	ablation.csv                      Share vs baseline mechanisms
//	vcg.csv                           Share (Nash) vs VCG procurement
//	welfare.csv                       price of anarchy vs planner
//	fig2c-empirical.csv               Fig. 2(c) with trained products
//	analytic-vs-numeric.csv           Eq. 20 vs numerical Nash solver
//
// Usage:
//
//	share-bench [-out DIR] [-fig NAME] [-seed N] [-m N] [-workers N] [-quick] [-plot] [-bench]
//
// -fig selects a single figure ("2a", "3", "7", "mf", "ablation", "vcg",
// "welfare", "2c-emp", "avn"); the default "all" regenerates everything and
// "none" nothing. An unknown name exits 2 with the accepted list.
// -quick shrinks the Fig. 3 corpus and m sweep for a fast smoke run;
// -plot additionally renders each figure as an ASCII chart.
// -workers sets the sweep fan-out (0 = GOMAXPROCS, 1 = sequential); every
// figure CSV is byte-identical regardless of the setting — workers only
// change wall-clock. -bench additionally runs the performance probes and
// writes BENCH.json (ns/op, allocs/op and headline speedups for the cached
// solver, the parallel sweep engine and the Jacobi Nash sweep).
// -bench-pr3 runs the valuation-kernel probes and writes BENCH_PR3.json
// (the moment-cached Shapley kernel in isolation, plus the kernel
// end-to-end through a trade round); combine with -fig none to skip figure
// regeneration.
// -bench-pr4 runs the solve-backend probes and writes BENCH_PR4.json
// (per-round equilibrium latency of the analytic, mean-field and general
// backends at m ∈ {100, 1000}).
// -bench-pr6 runs the durability probes and writes BENCH_PR6.json (trade
// throughput and commit latency of the write-ahead log in sync,
// group-commit and async modes, at m ∈ {20, 100}).
// -bench-pr8 runs the general-backend probes and writes BENCH_PR8.json
// (per-round latency of the numerical cascade, cold and warm-chained, for
// the quadratic, alternative and cubic losses at m ∈ {100, 1000}, against
// the committed BENCH_PR4.json numbers).
// -solver re-renders the sensitivity sweeps (Figs. 4–8) under a different
// equilibrium backend (analytic | meanfield | general); the default analytic
// backend reproduces every CSV byte-for-byte.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"share/internal/core"
	"share/internal/dataset"
	"share/internal/experiments"
	"share/internal/ldp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("share-bench: ")

	var (
		outDir  = flag.String("out", "bench_out", "output directory for CSV files")
		fig     = flag.String("fig", "all", "figure to regenerate (2a,2b,2c,3,3a,3b,4..8,mf,ablation,avn,all; none = no figures)")
		seed    = flag.Int64("seed", experiments.DefaultSeed, "random seed")
		m       = flag.Int("m", core.PaperM, "number of sellers for the analytic figures")
		quick   = flag.Bool("quick", false, "shrink the efficiency sweep for a fast run")
		warm    = flag.Bool("warmup", false, "derive weights via dummy-buyer warm-up (slower, closer to §6.1)")
		plots   = flag.Bool("plot", false, "render each figure as an ASCII chart on stdout")
		report  = flag.Bool("report", false, "also write REPORT.md embedding every figure as an ASCII chart")
		workers = flag.Int("workers", 0, "sweep fan-out width (0 = GOMAXPROCS, 1 = sequential; output is identical)")
		bench   = flag.Bool("bench", false, "run performance probes and write BENCH.json")
		bench3  = flag.Bool("bench-pr3", false, "run valuation-kernel probes and write BENCH_PR3.json")
		bench4  = flag.Bool("bench-pr4", false, "run solve-backend probes and write BENCH_PR4.json")
		bench6  = flag.Bool("bench-pr6", false, "run durability-mode probes and write BENCH_PR6.json")
		bench8  = flag.Bool("bench-pr8", false, "run general-backend probes and write BENCH_PR8.json")
		solver  = flag.String("solver", "", "equilibrium backend for the sensitivity sweeps: analytic | meanfield | general (empty = analytic)")
	)
	flag.Parse()

	figure := strings.ToLower(*fig)
	if !slices.Contains(figureNames, figure) {
		fmt.Fprintf(os.Stderr, "share-bench: unknown -fig %q (want one of: %s)\n", *fig, strings.Join(figureNames, ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatalf("creating %s: %v", *outDir, err)
	}
	experiments.SetWorkers(*workers)
	if err := experiments.SetSolver(*solver); err != nil {
		log.Fatalf("-solver: %v", err)
	}
	if err := run(*outDir, figure, *seed, *m, *workers, *quick, *warm, *plots, *report); err != nil {
		log.Fatal(err)
	}
	if *bench {
		if err := writeBenchJSON(*outDir, *workers, *seed); err != nil {
			log.Fatal(err)
		}
	}
	if *bench3 {
		if err := writeBenchPR3(*outDir, *workers, *seed); err != nil {
			log.Fatal(err)
		}
	}
	if *bench4 {
		if err := writeBenchPR4(*outDir, *workers, *seed); err != nil {
			log.Fatal(err)
		}
	}
	if *bench6 {
		if err := writeBenchPR6(*outDir, *seed); err != nil {
			log.Fatal(err)
		}
	}
	if *bench8 {
		if err := writeBenchPR8(*outDir, *workers, *seed); err != nil {
			log.Fatal(err)
		}
	}
}

// figureNames lists every -fig value run regenerates something for, plus
// "all" and "none" (no figures, for runs that only write probe reports).
// Keep it in step with the want calls in run.
var figureNames = []string{
	"all", "none",
	"2", "fig2", "2a", "2b", "2c",
	"3", "fig3", "3a", "3b",
	"4", "fig4", "5", "fig5", "6", "fig6", "7", "fig7", "8", "fig8",
	"mf", "meanfield", "ablation", "2c-emp", "empirical",
	"welfare", "poa", "vcg", "avn", "analytic-vs-numeric",
}

func run(outDir, fig string, seed int64, m, workers int, quick, warm, plots, report bool) error {
	var reported []*experiments.Series
	want := func(names ...string) bool {
		if fig == "all" {
			return true
		}
		for _, n := range names {
			if fig == n {
				return true
			}
		}
		return false
	}

	var setup *experiments.Setup
	getSetup := func() (*experiments.Setup, error) {
		if setup == nil {
			var err error
			setup, err = experiments.NewSetup(m, seed, warm)
			if err != nil {
				return nil, err
			}
		}
		return setup, nil
	}

	save := func(s *experiments.Series) error {
		path := filepath.Join(outDir, s.Name+".csv")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := s.WriteCSV(f); err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
		log.Printf("wrote %s (%d rows) — %s", path, len(s.Rows), s.Title)
		if plots {
			logX := s.XLabel == "m" // the seller-count sweeps read best on a log axis
			fmt.Println(s.PlotString(logX))
		}
		if report {
			reported = append(reported, s)
		}
		return nil
	}

	// Fig. 2 — effectiveness.
	if want("2", "2a", "2b", "2c", "fig2") {
		s, err := getSetup()
		if err != nil {
			return err
		}
		type mk func(*core.Game, float64, float64) (*experiments.Series, error)
		for name, f := range map[string]mk{"2a": experiments.Fig2a, "2b": experiments.Fig2b, "2c": experiments.Fig2c} {
			if !want("2", "fig2", name) {
				continue
			}
			series, err := f(s.Game, 0, 0)
			if err != nil {
				return fmt.Errorf("fig%s: %w", name, err)
			}
			if err := save(series); err != nil {
				return err
			}
		}
	}

	// Fig. 3 — efficiency.
	if want("3", "3a", "3b", "fig3") {
		opt := experiments.Fig3Options{Seed: seed, Workers: workers}
		if quick {
			opt.Sizes = []int{5, 10, 20, 50, 100, 200, 500}
			opt.CorpusRows = 100_000
		}
		start := time.Now()
		withS, withoutS, err := experiments.Fig3(opt)
		if err != nil {
			return fmt.Errorf("fig3: %w", err)
		}
		log.Printf("fig3 sweep finished in %v", time.Since(start).Round(time.Millisecond))
		if err := save(withS); err != nil {
			return err
		}
		if err := save(withoutS); err != nil {
			return err
		}
	}

	// Figs. 4–8 — sensitivity sweeps.
	type sweepFn func(*core.Game) (*experiments.Series, *experiments.Series, error)
	sweeps := []struct {
		key string
		fn  sweepFn
	}{
		{"4", experiments.Fig4},
		{"5", experiments.Fig5},
		{"6", experiments.Fig6},
		{"7", experiments.Fig7},
		{"8", experiments.Fig8},
	}
	for _, sw := range sweeps {
		if !want(sw.key, "fig"+sw.key) {
			continue
		}
		s, err := getSetup()
		if err != nil {
			return err
		}
		strategies, profits, err := sw.fn(s.Game)
		if err != nil {
			return fmt.Errorf("fig%s: %w", sw.key, err)
		}
		if err := save(strategies); err != nil {
			return err
		}
		if err := save(profits); err != nil {
			return err
		}
	}

	// Theorem 5.1 error analysis.
	if want("mf", "meanfield") {
		series, err := experiments.MeanFieldError(0, nil, seed)
		if err != nil {
			return fmt.Errorf("meanfield: %w", err)
		}
		if err := save(series); err != nil {
			return err
		}
	}

	// Mechanism ablation.
	if want("ablation") {
		s, err := getSetup()
		if err != nil {
			return err
		}
		series, names, err := experiments.Ablation(s.Game, s.Rng)
		if err != nil {
			return fmt.Errorf("ablation: %w", err)
		}
		if err := save(series); err != nil {
			return err
		}
		log.Printf("ablation mechanisms: %s", strings.Join(names, ", "))
	}

	// Empirical Fig. 2(c): trained products in the loop.
	if want("2c-emp", "empirical") {
		s, err := getSetup()
		if err != nil {
			return err
		}
		series, err := empiricalFig2c(s, seed)
		if err != nil {
			return fmt.Errorf("fig2c-empirical: %w", err)
		}
		if err := save(series); err != nil {
			return err
		}
	}

	// Welfare / price-of-anarchy extension.
	if want("welfare", "poa") {
		s, err := getSetup()
		if err != nil {
			return err
		}
		series, err := experiments.WelfareSweep(s.Game, []float64{0.05, 0.1, 0.25, 0.5, 1, 2, 5})
		if err != nil {
			return fmt.Errorf("welfare: %w", err)
		}
		if err := save(series); err != nil {
			return err
		}
	}

	// VCG vs Nash procurement comparison.
	if want("vcg") {
		series, err := experiments.VCGComparison(nil, seed)
		if err != nil {
			return fmt.Errorf("vcg: %w", err)
		}
		if err := save(series); err != nil {
			return err
		}
	}

	// Analytic vs numeric Stage-3 cross-validation.
	if want("avn", "analytic-vs-numeric") {
		s, err := experiments.NewSetup(min(m, 20), seed, false)
		if err != nil {
			return err
		}
		series, err := experiments.AnalyticVsNumeric(s.Game, []float64{0.005, 0.01, 0.02, 0.05, 0.1})
		if err != nil {
			return fmt.Errorf("analytic-vs-numeric: %w", err)
		}
		if err := save(series); err != nil {
			return err
		}
	}

	if report && len(reported) > 0 {
		if err := writeReport(outDir, reported); err != nil {
			return fmt.Errorf("writing report: %w", err)
		}
	}
	return nil
}

// writeReport renders every generated series into a self-contained Markdown
// gallery with ASCII charts, for repositories and code reviews where CSVs
// don't read at a glance.
func writeReport(outDir string, series []*experiments.Series) error {
	path := filepath.Join(outDir, "REPORT.md")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "# Share — generated figure gallery")
	fmt.Fprintln(f)
	fmt.Fprintln(f, "Regenerated by `share-bench -report`. One section per figure;")
	fmt.Fprintln(f, "raw data in the sibling CSV files. See EXPERIMENTS.md for the")
	fmt.Fprintln(f, "paper-vs-measured comparison.")
	for _, s := range series {
		fmt.Fprintf(f, "\n## %s — %s\n\n", s.Name, s.Title)
		fmt.Fprintln(f, "```")
		fmt.Fprint(f, s.PlotString(s.XLabel == "m"))
		fmt.Fprintln(f, "```")
	}
	log.Printf("wrote %s (%d figures)", path, len(series))
	return nil
}

// empiricalFig2c prepares CCPP chunks for the setup's game and runs the
// model-in-the-loop Fig. 2(c) variant.
func empiricalFig2c(s *experiments.Setup, seed int64) (*experiments.Series, error) {
	full := dataset.SyntheticCCPP(0, s.Rng)
	train, test := full.Split(9000)
	chunks, err := dataset.PartitionEqual(train.Clone(), s.Game.M())
	if err != nil {
		return nil, err
	}
	lo, hi := dataset.CCPPBounds()
	bounds, err := ldp.NewBounds(lo, hi)
	if err != nil {
		return nil, err
	}
	return experiments.Fig2cEmpirical(s.Game, chunks, test, ldp.NewLaplace(bounds), s.Rng)
}
