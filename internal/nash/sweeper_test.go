package nash

import (
	"math"
	"testing"
)

// cournotSweep is a SweepPayoff for the m-player linear Cournot game:
// payoff_i(x) = x·(a − (S − sᵢ + x)) − c·x, with S = Σsⱼ the frozen
// aggregate. Equilibrium: every player at (a − c)/(m + 1).
type cournotSweep struct {
	a, c float64
	s    []float64
	sum  float64
}

func (cs *cournotSweep) Freeze(s []float64) {
	cs.s = append(cs.s[:0], s...)
	cs.sum = 0
	for _, x := range s {
		cs.sum += x
	}
}

func (cs *cournotSweep) At(i int, x float64) float64 {
	total := cs.sum - cs.s[i] + x
	return x*(cs.a-total) - cs.c*x
}

func (cs *cournotSweep) Update(i int, x float64) {
	cs.sum += x - cs.s[i]
	cs.s[i] = x
}

func cournotGame(m int, sweep bool) *Game {
	const a, c = 1.0, 0.1
	g := &Game{Players: m}
	if sweep {
		g.Sweeper = &cournotSweep{a: a, c: c}
	} else {
		g.Payoff = func(i int, x float64, s []float64) float64 {
			total := x
			for j, v := range s {
				if j != i {
					total += v
				}
			}
			return x*(a-total) - c*x
		}
	}
	return g
}

// The sweeper path (O(1) incremental payoffs, Brent inner maximizer) must
// find the same equilibrium as the legacy Payoff oracle.
func TestSweeperMatchesPayoffOracle(t *testing.T) {
	const m = 6
	want := (1.0 - 0.1) / float64(m+1)
	for _, mode := range []SweepMode{GaussSeidel, Jacobi} {
		sw, err := cournotGame(m, true).Solve(Options{Sweep: mode})
		if err != nil {
			t.Fatalf("sweeper solve (mode %d): %v", mode, err)
		}
		po, err := cournotGame(m, false).Solve(Options{Sweep: mode})
		if err != nil {
			t.Fatalf("payoff solve (mode %d): %v", mode, err)
		}
		for i := 0; i < m; i++ {
			if math.Abs(sw.Strategies[i]-want) > 1e-6 {
				t.Fatalf("mode %d: sweeper player %d at %g, want %g", mode, i, sw.Strategies[i], want)
			}
			if math.Abs(sw.Strategies[i]-po.Strategies[i]) > 1e-6 {
				t.Fatalf("mode %d: sweeper %g vs payoff %g at player %d", mode, sw.Strategies[i], po.Strategies[i], i)
			}
		}
	}
}

// Warm-starting from a previous equilibrium must (1) give the same answer,
// (2) in fewer sweeps, and (3) stay bit-identical across worker counts —
// the contract the general cascade's warm starts rely on.
func TestSweeperWarmStartDeterminism(t *testing.T) {
	const m = 8
	cold, err := cournotGame(m, true).Solve(Options{Sweep: Jacobi, Workers: 1})
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}

	warmOpt := Options{Sweep: Jacobi, Workers: 1, Start: cold.Strategies, LocalRadius: 0.05}
	warm, err := cournotGame(m, true).Solve(warmOpt)
	if err != nil {
		t.Fatalf("warm solve: %v", err)
	}
	if warm.Iterations >= cold.Iterations {
		t.Fatalf("warm start took %d sweeps, cold took %d; want fewer", warm.Iterations, cold.Iterations)
	}
	for i := range warm.Strategies {
		if math.Abs(warm.Strategies[i]-cold.Strategies[i]) > 1e-7 {
			t.Fatalf("player %d: warm %g vs cold %g", i, warm.Strategies[i], cold.Strategies[i])
		}
	}

	for _, workers := range []int{2, 5, 13} {
		opt := warmOpt
		opt.Workers = workers
		res, err := cournotGame(m, true).Solve(opt)
		if err != nil {
			t.Fatalf("warm solve with %d workers: %v", workers, err)
		}
		if res.Iterations != warm.Iterations {
			t.Fatalf("%d workers: %d sweeps vs 1 worker's %d", workers, res.Iterations, warm.Iterations)
		}
		for i := range res.Strategies {
			if res.Strategies[i] != warm.Strategies[i] {
				t.Fatalf("%d workers: player %d at %v, 1 worker at %v — must be bit-identical",
					workers, i, res.Strategies[i], warm.Strategies[i])
			}
		}
	}
}

// A start far outside the local window must still converge: the local
// bracket presses its clipped edge and falls back to the full interval.
func TestSweeperLocalRadiusFallback(t *testing.T) {
	const m = 4
	want := (1.0 - 0.1) / float64(m+1) // ≈ 0.18
	start := make([]float64, m)
	for i := range start {
		start[i] = 0.95 // best response ≈ 0.03 lies far below start − 0.01
	}
	res, err := cournotGame(m, true).Solve(Options{
		Sweep: Jacobi, Workers: 1, Start: start, LocalRadius: 0.01,
	})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	for i := 0; i < m; i++ {
		if math.Abs(res.Strategies[i]-want) > 1e-6 {
			t.Fatalf("player %d at %g, want %g — local window must not trap the search", i, res.Strategies[i], want)
		}
	}
}

// NoAudit skips the final deviation sweep: no payoffs, zero residual, same
// strategies.
func TestNoAuditSkipsFinalSweep(t *testing.T) {
	audited, err := cournotGame(5, true).Solve(Options{})
	if err != nil {
		t.Fatalf("audited solve: %v", err)
	}
	if len(audited.Payoffs) != 5 {
		t.Fatalf("audited solve reported %d payoffs, want 5", len(audited.Payoffs))
	}
	bare, err := cournotGame(5, true).Solve(Options{NoAudit: true})
	if err != nil {
		t.Fatalf("NoAudit solve: %v", err)
	}
	if bare.Payoffs != nil || bare.Residual != 0 {
		t.Fatalf("NoAudit solve reported payoffs %v residual %g; want none", bare.Payoffs, bare.Residual)
	}
	for i := range bare.Strategies {
		if bare.Strategies[i] != audited.Strategies[i] {
			t.Fatalf("player %d: NoAudit %v vs audited %v — the audit must not change strategies",
				i, bare.Strategies[i], audited.Strategies[i])
		}
	}
}
