// Package nash provides a generic numerical Nash equilibrium solver for
// continuous one-dimensional-strategy games: iterated best response with a
// golden-section inner maximizer and damped updates.
//
// Share uses it two ways. First, as the cross-validation oracle: the
// analytic Stage-3 equilibria (Eq. 20 and Eq. 23/24) must agree with the
// numerical equilibrium of the true profit functions, and the test suite
// checks that they do. Second, as the production solver for "complicated
// cases" (§5.1.1) — privacy-loss forms with no closed-form best response —
// where neither the direct derivation nor the mean-field shortcut applies.
package nash

import (
	"context"
	"errors"
	"fmt"
	"math"

	"share/internal/numeric"
	"share/internal/parallel"
)

// Payoff evaluates player i's payoff when she plays x and everyone plays
// strategies (strategies[i] is ignored in favor of x). Implementations must
// not retain or mutate strategies.
type Payoff func(i int, x float64, strategies []float64) float64

// SweepPayoff is the allocation-free per-player payoff contract for games
// whose payoffs depend on the opponents only through cheap aggregates (e.g.
// the Σωⱼτⱼ denominator of the Share allocation rule). The solver calls
// Freeze once per frozen profile and then probes At(i, x) any number of
// times against it — O(1) per probe instead of the O(players) slice copy a
// Payoff oracle pays, which turns an O(m²) best-response sweep into O(m).
//
// Contract: after Freeze, At must be safe for concurrent calls (the Jacobi
// fan-out probes players in parallel) and must depend only on the frozen
// profile and its arguments, so results stay bit-identical for every worker
// count. Update folds a single player's move into the frozen state for the
// Gauss-Seidel schedule, whose profile advances player by player.
type SweepPayoff interface {
	// Freeze fixes the profile subsequent At calls deviate from. The slice
	// must not be retained; copy whatever state the probes need.
	Freeze(s []float64)
	// At returns player i's payoff when she plays x against the frozen
	// profile.
	At(i int, x float64) float64
	// Update re-freezes player i's strategy to x without an O(players)
	// pass, keeping the frozen state in sync with a Gauss-Seidel sweep.
	Update(i int, x float64)
}

// Game describes an m-player simultaneous game with interval strategy
// spaces.
type Game struct {
	// Players is the number of players m.
	Players int
	// Lo and Hi bound each player's strategy space [Lo[i], Hi[i]]. Nil
	// slices default to [0, 1] for every player.
	Lo, Hi []float64
	// Payoff is the common payoff oracle.
	Payoff Payoff
	// Sweeper optionally replaces Payoff on the solver's hot path with the
	// allocation-free contract above. When both are set they must agree on
	// every (i, x, profile) up to floating-point association; when only
	// Sweeper is set, the solve and its final audit both route through it.
	Sweeper SweepPayoff
}

// SweepMode selects the best-response schedule within one sweep.
type SweepMode int

const (
	// GaussSeidel updates players in index order, each best response seeing
	// its predecessors' already-updated strategies. Sequential, and usually
	// the fastest to converge — the default.
	GaussSeidel SweepMode = iota
	// Jacobi evaluates all m best responses against the previous profile
	// and applies them simultaneously. The responses are independent, so
	// they fan out across a worker pool (Options.Workers); both modes
	// converge to the same equilibrium on Share's concave seller games,
	// which the test suite cross-checks.
	Jacobi
)

// Options tune the solver; the zero value gives sensible defaults.
type Options struct {
	// MaxIter bounds the number of best-response sweeps (default 500).
	MaxIter int
	// Tol is the convergence tolerance on the strategy max-norm change per
	// sweep (default 1e-9).
	Tol float64
	// Damping in (0, 1] blends old and new strategies each sweep
	// (default 0.5); values below 1 stabilize oscillating responses.
	Damping float64
	// InnerTol is the golden-section tolerance for each best response
	// (default 1e-11).
	InnerTol float64
	// Start optionally seeds the initial strategy profile; nil starts at
	// the midpoint of each strategy interval.
	Start []float64
	// Sweep selects the best-response schedule (default GaussSeidel).
	Sweep SweepMode
	// Workers bounds the Jacobi fan-out; ≤ 0 means GOMAXPROCS (the
	// internal/parallel convention). GaussSeidel is inherently sequential
	// and ignores it. With more than one worker the Payoff oracle must be
	// safe for concurrent calls — the "must not retain or mutate
	// strategies" contract already guarantees this for pure functions.
	// Results are identical for any worker count: each best response
	// depends only on the frozen previous profile and lands in its own
	// slot, applied in index order.
	Workers int
	// NoAudit skips the final equilibrium audit (Result.Payoffs and
	// Result.Residual stay zero), saving one full deviation sweep. Callers
	// that only consume Result.Strategies — the general solver probes a
	// Stage-3 equilibrium per golden-section price point and discards
	// everything else — set it on their hot path.
	NoAudit bool
	// LocalRadius, when positive, first brackets each best response within
	// ±LocalRadius of the player's current strategy (clipped to her
	// interval) and falls back to the full interval when the local optimum
	// presses against a clipped edge. Warm-started solves sit within a few
	// tolerances of the answer, so the narrow bracket cuts most of each
	// search; the fallback keeps exactness. Sweeper games only — the
	// legacy Payoff path keeps its historical full-bracket trajectories.
	LocalRadius float64
}

// Result reports the computed equilibrium.
type Result struct {
	// Strategies is the equilibrium strategy profile.
	Strategies []float64
	// Payoffs are the equilibrium payoffs.
	Payoffs []float64
	// Iterations is the number of best-response sweeps performed.
	Iterations int
	// Residual is the largest payoff improvement any player could still
	// achieve by a unilateral deviation (estimated with one final sweep).
	Residual float64
}

// ErrNotConverged reports that iterated best response failed to settle
// within the iteration budget — typically a game with no pure-strategy
// equilibrium or a cycling response map needing stronger damping.
var ErrNotConverged = errors.New("nash: best-response iteration did not converge")

func (g *Game) bounds() (lo, hi []float64, err error) {
	if g.Players <= 0 {
		return nil, nil, fmt.Errorf("nash: invalid player count %d", g.Players)
	}
	lo, hi = g.Lo, g.Hi
	if lo == nil {
		lo = make([]float64, g.Players)
	}
	if hi == nil {
		hi = make([]float64, g.Players)
		for i := range hi {
			hi[i] = 1
		}
	}
	if len(lo) != g.Players || len(hi) != g.Players {
		return nil, nil, fmt.Errorf("nash: bounds length mismatch: %d players, %d/%d bounds", g.Players, len(lo), len(hi))
	}
	for i := range lo {
		if !(lo[i] < hi[i]) {
			return nil, nil, fmt.Errorf("nash: player %d has empty strategy space [%g, %g]", i, lo[i], hi[i])
		}
	}
	return lo, hi, nil
}

// Solve computes a pure-strategy Nash equilibrium by damped iterated best
// response. For games with strictly concave payoffs in own strategy (all of
// Share's seller games), a sufficiently damped iteration is a contraction
// and converges to the unique equilibrium. When the iteration fails to
// settle at the requested damping — strong aggregate coupling makes the
// undamped best-response map unstable for many-player Cournot-style games —
// Solve automatically retries with progressively halved damping before
// giving up.
func (g *Game) Solve(opt Options) (*Result, error) {
	return g.SolveCtx(context.Background(), opt)
}

// SolveCtx is Solve under a cancellation context, checked once per
// best-response sweep: a canceled or deadline-expired solve returns promptly
// with the context's error instead of finishing the iteration budget. With a
// background context results are bit-identical to Solve.
func (g *Game) SolveCtx(ctx context.Context, opt Options) (*Result, error) {
	lo, hi, err := g.bounds()
	if err != nil {
		return nil, err
	}
	if g.Payoff == nil && g.Sweeper == nil {
		return nil, errors.New("nash: nil payoff function")
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 500
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-9
	}
	if opt.Damping <= 0 || opt.Damping > 1 {
		opt.Damping = 0.5
	}
	if opt.InnerTol <= 0 {
		opt.InnerTol = 1e-11
	}
	if opt.Start != nil && len(opt.Start) != g.Players {
		return nil, fmt.Errorf("nash: start profile has %d entries for %d players", len(opt.Start), g.Players)
	}
	if opt.Sweep != GaussSeidel && opt.Sweep != Jacobi {
		return nil, fmt.Errorf("nash: unknown sweep mode %d", opt.Sweep)
	}

	damping := opt.Damping
	const maxBackoffs = 7
	for attempt := 0; attempt <= maxBackoffs; attempt++ {
		res, ok, err := g.solveOnce(ctx, opt, lo, hi, damping)
		if err != nil {
			return nil, err
		}
		if ok {
			return res, nil
		}
		damping /= 2
	}
	return nil, ErrNotConverged
}

// sweepResponse computes player i's best response against the sweeper's
// frozen profile. With a positive LocalRadius the search first brackets
// within ±radius of the player's current strategy; an argmax pressing a
// clipped (non-global) edge means the true optimum may lie outside the
// window, so the full interval is re-searched. The fallback makes the
// result a pure function of the frozen profile — identical to the
// full-bracket answer whenever they would differ materially — so
// bit-identity across worker counts is preserved.
func sweepResponse(sw SweepPayoff, i int, cur, lo, hi float64, opt Options) float64 {
	at := func(x float64) float64 { return sw.At(i, x) }
	if r := opt.LocalRadius; r > 0 {
		llo, lhi := cur-r, cur+r
		clipLo, clipHi := false, false
		if llo < lo {
			llo = lo
		} else {
			clipLo = true
		}
		if lhi > hi {
			lhi = hi
		} else {
			clipHi = true
		}
		if clipLo || clipHi {
			b := numeric.BrentMax(at, llo, lhi, opt.InnerTol)
			margin := 4*opt.InnerTol + 1e-12
			if (!clipLo || b-llo > margin) && (!clipHi || lhi-b > margin) {
				return b
			}
		}
	}
	return numeric.BrentMax(at, lo, hi, opt.InnerTol)
}

// solveOnce runs one damped best-response iteration to convergence or the
// iteration budget. A non-nil error is always the context's.
func (g *Game) solveOnce(ctx context.Context, opt Options, lo, hi []float64, damping float64) (*Result, bool, error) {
	s := make([]float64, g.Players)
	if opt.Start != nil {
		for i, x := range opt.Start {
			s[i] = numeric.Clamp(x, lo[i], hi[i])
		}
	} else {
		for i := range s {
			s[i] = (lo[i] + hi[i]) / 2
		}
	}

	res := &Result{}
	// Lower damping needs proportionally more sweeps to cover the same
	// contraction distance.
	budget := int(float64(opt.MaxIter) * (opt.Damping / damping))
	// Jacobi responses all see the frozen previous profile; best[i] is each
	// player's index-owned slot, reused across sweeps.
	var best []float64
	if opt.Sweep == Jacobi {
		best = make([]float64, g.Players)
	}
	sw := g.Sweeper
	if sw != nil && opt.Sweep == GaussSeidel {
		// Gauss-Seidel advances the profile player by player; freeze once
		// and fold each update in via the O(1) Update hook.
		sw.Freeze(s)
	}
	for iter := 1; iter <= budget; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, false, fmt.Errorf("nash: solve canceled at sweep %d: %w", iter, err)
		}
		var maxDelta float64
		switch opt.Sweep {
		case Jacobi:
			if sw != nil {
				sw.Freeze(s)
				// Sweeper games take the superlinear Brent maximizer: the
				// legacy Payoff path keeps plain golden section so its
				// historical trajectories stay byte-identical.
				parallel.For(opt.Workers, g.Players, func(i int) {
					best[i] = sweepResponse(sw, i, s[i], lo[i], hi[i], opt)
				})
			} else {
				parallel.For(opt.Workers, g.Players, func(i int) {
					best[i] = numeric.GoldenMax(func(x float64) float64 {
						return g.Payoff(i, x, s)
					}, lo[i], hi[i], opt.InnerTol)
				})
			}
			for i, b := range best {
				next := (1-damping)*s[i] + damping*b
				if d := math.Abs(next - s[i]); d > maxDelta {
					maxDelta = d
				}
				s[i] = next
			}
		default: // GaussSeidel
			for i := 0; i < g.Players; i++ {
				var best float64
				if sw != nil {
					best = sweepResponse(sw, i, s[i], lo[i], hi[i], opt)
				} else {
					best = numeric.GoldenMax(func(x float64) float64 {
						return g.Payoff(i, x, s)
					}, lo[i], hi[i], opt.InnerTol)
				}
				next := (1-damping)*s[i] + damping*best
				if d := math.Abs(next - s[i]); d > maxDelta {
					maxDelta = d
				}
				s[i] = next
				if sw != nil {
					sw.Update(i, next)
				}
			}
		}
		res.Iterations = iter
		if maxDelta < opt.Tol {
			res.Strategies = s
			if opt.NoAudit {
				return res, true, nil
			}
			auditWorkers := 1
			if opt.Sweep == Jacobi {
				auditWorkers = opt.Workers
			}
			res.Payoffs, res.Residual = g.audit(s, lo, hi, opt.InnerTol, auditWorkers)
			return res, true, nil
		}
	}
	return nil, false, nil
}

// audit computes equilibrium payoffs and the largest remaining unilateral
// improvement. Each player's deviation search is independent, so Jacobi
// solves fan it out across the same worker pool as the sweeps; payoffs land
// in index-owned slots and the residual is a max over the same value set, so
// results are identical for every worker count.
func (g *Game) audit(s, lo, hi []float64, innerTol float64, workers int) (payoffs []float64, residual float64) {
	payoffs = make([]float64, g.Players)
	gains := make([]float64, g.Players)
	eval := g.Payoff
	if sw := g.Sweeper; sw != nil {
		sw.Freeze(s)
		eval = func(i int, x float64, _ []float64) float64 { return sw.At(i, x) }
	}
	parallel.For(workers, g.Players, func(i int) {
		cur := eval(i, s[i], s)
		payoffs[i] = cur
		best := numeric.GoldenMax(func(x float64) float64 {
			return eval(i, x, s)
		}, lo[i], hi[i], innerTol)
		gains[i] = eval(i, best, s) - cur
	})
	for _, gain := range gains {
		if gain > residual {
			residual = gain
		}
	}
	return payoffs, residual
}
