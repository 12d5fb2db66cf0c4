package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"share/internal/nash"
	"share/internal/numeric"
	"share/internal/parallel"
)

// This file generalizes the mechanism beyond the closed-form losses of the
// paper. §5.1.1 motivates the mean-field method with "complicated function
// forms (e.g., more complicated loss function rather than the used quadratic
// one)" where the direct derivation of analytic expressions fails. Here we
// go one step further and make the whole backward induction work for an
// arbitrary privacy-loss function: Stage 3 is solved by the generic
// numerical Nash solver, and Stages 2 and 1 by nested golden-section
// maximization over the numerical reaction functions. For the paper's
// quadratic loss this reproduces the analytic SNE (tested); for any other
// loss it is the production path.
//
// The cascade is built to be interactive, not offline (DESIGN.md §14):
//
//   - Stage-3 payoffs go through an allocation-free nash.SweepPayoff —
//     χᵢ depends on the opponents only through Σωⱼτⱼ, maintained
//     incrementally — so one best-response sweep is O(m), not O(m²).
//   - Every Stage-3 solve warm-starts from the τ-profile of the nearest
//     previously probed price (scaled by the price ratio, which is exact
//     for the quadratic loss), falling back to the Eq. 20 closed form.
//   - Stage-3 tolerances follow the golden brackets: coarse while a
//     bracket is wide, geometrically tighter as it closes, and solutions
//     are memoized per price so re-probes cost nothing.
//   - The price searches propagate real errors (numeric.GoldenMaxErr /
//     GoldenMaxSpec) instead of masking cancellation behind a sentinel,
//     and Stage 2 evaluates its probe pairs concurrently.

// LossFunc computes seller i's privacy loss given her data quantity χ and
// fidelity τ. The paper's two instantiations:
//
//	quadratic (Eq. 11):  λᵢ·(χτ)²
//	alternative (§5.1.1): λᵢ·χ·τ²
//
// Implementations must be increasing in τ on [0, 1] for every χ > 0 and
// satisfy L(χ, 0) = 0.
type LossFunc func(i int, chi, tau float64) float64

// QuadraticLoss is Eq. 11, the paper's primary loss form.
func (g *Game) QuadraticLoss() LossFunc {
	return func(i int, chi, tau float64) float64 {
		q := chi * tau
		return g.Sellers.Lambda[i] * q * q
	}
}

// AlternativeLoss is the §5.1.1 mean-field demonstration form λᵢ·χ·τ².
func (g *Game) AlternativeLoss() LossFunc {
	return func(i int, chi, tau float64) float64 {
		return g.Sellers.Lambda[i] * chi * tau * tau
	}
}

// CubicLoss is an example "complicated case": L = λᵢ·χ·τ³·(1+τ). It has no
// closed-form simultaneous solution — exactly the situation §5.1.1's
// mean-field discussion targets — and is used by tests and benches to
// exercise SolveGeneralInto beyond the paper's forms.
func (g *Game) CubicLoss() LossFunc {
	return func(i int, chi, tau float64) float64 {
		return g.Sellers.Lambda[i] * chi * tau * tau * tau * (1 + tau)
	}
}

// GeneralSellerProfit evaluates Ψᵢ = p^D·χᵢτᵢ − L(i, χᵢ, τᵢ) under an
// arbitrary loss, with χ from the Eq. 13 allocation rule.
func (g *Game) GeneralSellerProfit(i int, pD float64, tau []float64, loss LossFunc) float64 {
	chi := g.Allocation(tau)
	return pD*chi[i]*tau[i] - loss(i, chi[i], tau[i])
}

// GeneralStats reports where one SolveGeneralInto call spent its effort; the
// solve backend surfaces them as the solve/general/stage3 latency series
// and its iteration counters.
type GeneralStats struct {
	// Stage3Solves is the number of numerical Nash solves performed.
	Stage3Solves int
	// Stage3Sweeps is the total best-response sweeps across those solves.
	Stage3Sweeps int
	// MemoHits is the number of Stage-3 probes served from the price memo
	// instead of a fresh solve.
	MemoHits int
	// Stage3Time is the wall time spent inside Stage-3 solves.
	Stage3Time time.Duration
}

// GeneralOptions tune the numerical backward induction.
type GeneralOptions struct {
	// Loss is the sellers' privacy-loss function (required).
	Loss LossFunc
	// PMHi bounds the Stage-1 search for the product price (0 → 4× the
	// quadratic-loss closed form, a generous bracket).
	PMHi float64
	// PriceTol is the golden-section tolerance of the nested Stage 1–2
	// price searches (0 → 1e-6). Tightening it multiplies the Stage-3
	// solve count logarithmically; the cross-backend agreement tests use
	// 1e-9 to pin the numerical cascade to the closed forms.
	PriceTol float64
	// Nash tunes the inner Stage-3 solver. Tol and InnerTol set the FINAL
	// tolerances — intermediate probes run coarser per the bracket-width
	// schedule and only the refits at the located prices pay full price.
	Nash nash.Options
	// WarmTau optionally seeds the first Stage-3 solve with an equilibrium
	// profile from a previous round, solved at data price WarmPD. Golden
	// probes are nested, so successive rounds' prices are close and the
	// carried profile is usually within a sweep or two of the answer.
	WarmTau []float64
	// WarmPD is the data price WarmTau was solved at (required with
	// WarmTau; the warm profile is rescaled by the price ratio).
	WarmPD float64
	// Stats, when non-nil, receives the solve's effort counters.
	Stats *GeneralStats
}

// generalSweep is the allocation-free nash.SweepPayoff of the generalized
// Stage-3 seller game. χᵢ depends on the opponents only through the
// allocation denominator D = Σωⱼτⱼ, so a frozen profile is fully captured
// by D and the per-seller products ωᵢτᵢ: a deviation probe reads
// D − ωᵢτᵢ + ωᵢx and never touches the other m−1 strategies.
type generalSweep struct {
	n    float64 // buyer demand N
	pd   float64 // data price of this Stage-3 game
	loss LossFunc
	w    []float64 // seller weights ω (read-only)
	ws   []float64 // ωᵢτᵢ of the frozen profile
	d    float64   // Σ ωⱼτⱼ of the frozen profile
}

func newGeneralSweep(g *Game, pd float64, loss LossFunc) *generalSweep {
	return &generalSweep{
		n:    g.Buyer.N,
		pd:   pd,
		loss: loss,
		w:    g.Broker.Weights,
		ws:   make([]float64, g.M()),
	}
}

// Freeze sums in seller order, so the frozen aggregate is identical for
// every worker count.
func (sw *generalSweep) Freeze(s []float64) {
	var d float64
	for j, x := range s {
		p := sw.w[j] * x
		sw.ws[j] = p
		d += p
	}
	sw.d = d
}

// At is the O(1) deviation payoff: pure over the frozen state, safe for the
// Jacobi fan-out.
func (sw *generalSweep) At(i int, x float64) float64 {
	denom := sw.d - sw.ws[i] + sw.w[i]*x
	if denom <= 0 {
		// No data changes hands (Eq. 13's zero-fidelity corner): χᵢ = 0.
		return -sw.loss(i, 0, x)
	}
	chi := sw.n * sw.w[i] * x / denom
	return sw.pd*chi*x - sw.loss(i, chi, x)
}

func (sw *generalSweep) Update(i int, x float64) {
	p := sw.w[i] * x
	sw.d += p - sw.ws[i]
	sw.ws[i] = p
}

// stage3Entry memoizes one solved Stage-3 equilibrium. tau*(p^D) does not
// depend on p^M, so the memo spans the whole cascade: every golden probe of
// every Stage-2 search shares it. Entries are append-only and immutable
// once stored.
type stage3Entry struct {
	pd  float64
	tol float64   // Stage-3 Tol the entry was solved at
	tau []float64 // read-only equilibrium profile
	qD  float64   // DatasetQuality(tau), the sufficient statistic of Stages 1–2
}

// generalState carries one SolveGeneralInto invocation's shared machinery:
// the memo table, the tolerance schedule and the effort counters.
type generalState struct {
	g        *Game
	loss     LossFunc
	nash     nash.Options // final tolerances; probes run scheduled copies
	priceTol float64
	loose    float64 // coarsest scheduled Stage-3 Tol, tied to priceTol
	mc       float64 // manufacturing cost, constant across the cascade

	// Stage-2 window prediction: the broker reaction p^D*(p^M) is close to
	// linear through the origin (exactly v·p^M/2 for the quadratic loss),
	// so each Stage-2 search brackets around lastPD·(pm/lastPM) with a
	// radius scaled to the last observed prediction error — full bracket
	// until one has been measured, or when the windowed optimum presses
	// against its edge.
	lastPD  float64
	lastPM  float64
	predErr float64

	warmPD  float64
	warmTau []float64

	entries []*stage3Entry
	pmEvals int
	stats   GeneralStats
}

// looseTolCap caps how coarse the scheduled Stage-3 tolerance may start;
// the per-solve cap additionally tracks PriceTol (see SolveGeneralInto) so
// tight price searches get a proportionally quiet noise floor.
const looseTolCap = 1e-5

// schedTol maps a golden bracket's remaining width fraction onto a Stage-3
// tolerance: loose·frac², clamped to [floor, loose]. The quadratic law is
// signal-matched, not arbitrary: profit differences golden compares shrink
// as curvature·width² while the profit noise a Stage-3 solve at Tol = t
// contributes is ∝ t, so t ∝ width² keeps the noise a constant fraction of
// the signal at every width — including inside a narrowed window, where
// frac is measured against the full bracket, never the window.
func (st *generalState) schedTol(floor, frac float64) float64 {
	tol := st.loose * frac * frac
	if tol < floor {
		return floor
	}
	if tol > st.loose {
		return st.loose
	}
	return tol
}

// innerFor derives the per-best-response golden tolerance from the sweep
// tolerance: strategies cannot settle below the accuracy each response is
// located to, so the inner search tracks the outer schedule — coarse sweeps
// get coarse (cheap) best responses.
func (st *generalState) innerFor(tol float64) float64 {
	inner := tol / 16
	if inner < st.nash.InnerTol {
		inner = st.nash.InnerTol
	}
	if inner > 1e-7 {
		inner = 1e-7
	}
	return inner
}

// lookup returns a memoized entry at exactly pd solved at least as tightly
// as tol, scanning only the first frozen entries (concurrent probe pairs
// freeze the table so both evaluations see identical state regardless of
// worker count).
func (st *generalState) lookup(pd, tol float64, frozen int) *stage3Entry {
	for _, e := range st.entries[:frozen] {
		if e.pd == pd && e.tol <= tol {
			return e
		}
	}
	return nil
}

// startFor builds the warm-start profile for a Stage-3 solve at pd: the
// τ-profile of the nearest previously probed price — the carried previous
// round's profile counts as probe zero — rescaled by the price ratio
// (exact for the quadratic loss, whose Eq. 20 fidelities are linear in
// p^D below the clamp), else the quadratic closed form.
func (st *generalState) startFor(pd float64, frozen int) []float64 {
	bestPD := st.warmPD
	bestTau := st.warmTau
	for _, e := range st.entries[:frozen] {
		if bestTau == nil || math.Abs(e.pd-pd) < math.Abs(bestPD-pd) {
			bestPD, bestTau = e.pd, e.tau
		}
	}
	if bestTau == nil {
		return st.g.Stage3Tau(pd)
	}
	start := make([]float64, len(bestTau))
	scale := 1.0
	if bestPD > 0 {
		scale = pd / bestPD
	}
	for i, t := range bestTau {
		s := t * scale
		if s > 1 {
			s = 1
		}
		start[i] = s
	}
	return start
}

// solveStage3 runs one numerical Nash solve at pd against the frozen memo
// prefix. It does not touch shared state — callers append the entry and
// fold the iteration count in a deterministic order.
func (st *generalState) solveStage3(ctx context.Context, pd, tol, inner float64, frozen int) (*stage3Entry, int, error) {
	nopt := st.nash
	nopt.Start = st.startFor(pd, frozen)
	nopt.Tol = tol
	nopt.InnerTol = inner
	nopt.NoAudit = true
	// Warm starts land within a few price-tolerances of the equilibrium, so
	// most best responses sit deep inside a ±0.05 window of the current
	// strategy; nash's full-bracket fallback keeps exactness when they don't.
	nopt.LocalRadius = 0.05
	ng := &nash.Game{
		Players: st.g.M(),
		Sweeper: newGeneralSweep(st.g, pd, st.loss),
	}
	res, err := ng.SolveCtx(ctx, nopt)
	if err != nil {
		return nil, 0, fmt.Errorf("core: stage 3 numeric Nash at p^D=%g: %w", pd, err)
	}
	return &stage3Entry{
		pd:  pd,
		tol: tol,
		tau: res.Strategies,
		qD:  st.g.DatasetQuality(res.Strategies),
	}, res.Iterations, nil
}

// stage3At resolves one Stage-3 equilibrium at pd — memo hit or fresh
// solve — and records it.
func (st *generalState) stage3At(ctx context.Context, pd, tol float64) (*stage3Entry, error) {
	if e := st.lookup(pd, tol, len(st.entries)); e != nil {
		st.stats.MemoHits++
		return e, nil
	}
	t0 := time.Now()
	e, iters, err := st.solveStage3(ctx, pd, tol, st.innerFor(tol), len(st.entries))
	st.stats.Stage3Time += time.Since(t0)
	if err != nil {
		return nil, err
	}
	st.stats.Stage3Solves++
	st.stats.Stage3Sweeps += iters
	st.entries = append(st.entries, e)
	return e, nil
}

// stage3Pair resolves the two probes of one speculative golden step. Both
// evaluations read the memo frozen at entry — concurrent workers see the
// same state — and results are folded in argument order, so the table's
// evolution is bit-identical for every worker count.
func (st *generalState) stage3Pair(ctx context.Context, workers int, pd1, pd2, tol float64) (*stage3Entry, *stage3Entry, error) {
	if pd1 == pd2 {
		e, err := st.stage3At(ctx, pd1, tol)
		return e, e, err
	}
	frozen := len(st.entries)
	out := [2]*stage3Entry{st.lookup(pd1, tol, frozen), st.lookup(pd2, tol, frozen)}
	iters := [2]int{}
	errs := [2]error{}
	pds := [2]float64{pd1, pd2}
	inner := st.innerFor(tol)
	t0 := time.Now()
	parallel.For(workers, 2, func(i int) {
		if out[i] != nil {
			return
		}
		out[i], iters[i], errs[i] = st.solveStage3(ctx, pds[i], tol, inner, frozen)
	})
	st.stats.Stage3Time += time.Since(t0)
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			return nil, nil, errs[i]
		}
		if iters[i] > 0 {
			st.stats.Stage3Solves++
			st.stats.Stage3Sweeps += iters[i]
			st.entries = append(st.entries, out[i])
		} else {
			st.stats.MemoHits++
		}
	}
	return out[0], out[1], nil
}

// brokerProfit evaluates Ω(p^M, p^D, τ) from a memoized entry's dataset
// quality — the same arithmetic as Game.BrokerProfit without the O(m)
// re-aggregation.
func (st *generalState) brokerProfit(pm, pd float64, e *stage3Entry) float64 {
	return pm*st.g.ProductQuality(e.qD) - st.mc - pd*e.qD
}

// buyerProfit is Game.BuyerProfit from a memoized dataset quality.
func (st *generalState) buyerProfit(pm float64, e *stage3Entry) float64 {
	return st.g.Utility(e.qD) - pm*st.g.ProductQuality(e.qD)
}

// goldenPD runs one speculative golden search for the broker's best p^D on
// [lo, hi]. Probe tolerances are scheduled against the FULL bracket width
// (not the window's): golden compares profit differences that shrink with
// width² of the distance to the optimum, so keeping the Stage-3 noise a
// fixed fraction of that signal means tol ∝ (width/full)² regardless of
// where the search started.
func (st *generalState) goldenPD(ctx context.Context, workers int, pm, lo, hi, full, tolF float64) (float64, error) {
	return numeric.GoldenMaxSpec(func(x1, x2, width float64) (float64, float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, 0, err
		}
		frac := width / full
		tol := st.schedTol(tolF, frac*frac)
		e1, e2, err := st.stage3Pair(ctx, workers, x1, x2, tol)
		if err != nil {
			return 0, 0, err
		}
		return st.brokerProfit(pm, x1, e1), st.brokerProfit(pm, x2, e2), nil
	}, lo, hi, st.priceTol)
}

// stage2 locates the broker's best p^D for a given p^M by speculative
// golden search over the memoized Stage-3 reaction, then refits Stage 3 at
// the located price to tolF — the accuracy this Stage-2 call owes its
// caller (coarse during Stage 1's early bracket, finalTol at the end).
//
// Consecutive calls exploit the near-linearity of the broker reaction:
// each search brackets around lastPD·(pm/lastPM) with a radius scaled to
// the last prediction error, falling back to the full [0, 4·Stage2PD]
// bracket when no error has been measured yet or when the windowed optimum
// presses against its edge (the prediction was wrong — golden on a bracket
// excluding the optimum converges to the boundary, which the margin test
// catches).
func (st *generalState) stage2(ctx context.Context, workers int, pm, tolF float64) (float64, *stage3Entry, error) {
	full := st.g.Stage2PD(pm) * 4
	if full <= 0 {
		full = pm
	}
	lo, hi := 0.0, full
	windowed := false
	if st.lastPD > 0 && st.lastPM > 0 && !math.IsInf(st.predErr, 1) {
		pred := st.lastPD * (pm / st.lastPM)
		r := 4*st.predErr + 8*st.priceTol
		if pred-r > lo && pred+r < hi {
			lo, hi = pred-r, pred+r
			windowed = true
		}
	}
	pd, err := st.goldenPD(ctx, workers, pm, lo, hi, full, tolF)
	if err != nil {
		return 0, nil, err
	}
	if windowed && (pd-lo < 4*st.priceTol || hi-pd < 4*st.priceTol) {
		pd, err = st.goldenPD(ctx, workers, pm, 0, full, full, tolF)
		if err != nil {
			return 0, nil, err
		}
	}
	if st.lastPD > 0 && st.lastPM > 0 {
		st.predErr = math.Abs(pd - st.lastPD*(pm/st.lastPM))
	}
	st.lastPD, st.lastPM = pd, pm
	e, err := st.stage3At(ctx, pd, tolF)
	if err != nil {
		return 0, nil, err
	}
	return pd, e, nil
}

// SolveGeneralInto runs the full backward induction with numerical stages
// for an arbitrary seller loss function and writes the equilibrium into dst,
// reusing dst's vectors as EvaluateProfileInto does; dst is written only on
// success. For each candidate p^M the broker's best p^D is found by golden
// search over the numerical Stage-3 reaction, and the buyer's best p^M by
// golden search over that. The result is the SNE of the generalized game.
//
// ctx is checked at every Stage-3 solve (inner sweeps included via
// nash.SolveCtx) and between the nested golden-section phases; a mid-search
// cancellation surfaces as the context's error, never as a fabricated
// profile.
//
// Cost: O(log²(1/tol)) Stage-3 solves, each O(m · sweeps) thanks to the
// incremental payoff contract, warm-started from its nearest probed
// neighbour and solved no tighter than its golden bracket warrants. At
// m = 100 the whole cascade lands in a few milliseconds, over 100× under
// the unoptimized one (BenchmarkRatioGeneralVsBaseline) — interactive,
// though the closed-form Solve remains ~10³× faster for the quadratic loss.
func (g *Game) SolveGeneralInto(ctx context.Context, opt GeneralOptions, dst *Profile) error {
	if err := g.Validate(); err != nil {
		return err
	}
	if opt.Loss == nil {
		return errors.New("core: SolveGeneral requires a loss function")
	}
	pmHi := opt.PMHi
	pmCenter := 0.0 // quadratic closed-form guess; 0 disables windowing
	if pmHi <= 0 {
		pm, err := g.Stage1PM()
		if err != nil {
			return fmt.Errorf("core: bracketing p^M: %w", err)
		}
		pmHi = 4 * pm
		pmCenter = pm
	}

	// Default to coarse tolerances for the nested searches: each objective
	// evaluation is itself an iterative solve, and profit functions are
	// flat near their optima (quadratic error in the argument).
	priceTol := opt.PriceTol
	if priceTol <= 0 {
		priceTol = 1e-6
	}
	nopt := opt.Nash
	if nopt.Tol <= 0 {
		nopt.Tol = 1e-9
	}
	if nopt.InnerTol <= 0 {
		nopt.InnerTol = 1e-11
	}
	// The loose cap of the tolerance schedule tracks the price tolerance:
	// a caller asking for 1e-9 prices needs the Stage-3 noise floor far
	// below what a 1e-4 interactive solve tolerates.
	loose := 10 * priceTol
	if loose > looseTolCap {
		loose = looseTolCap
	}
	if loose < nopt.Tol {
		loose = nopt.Tol
	}
	st := &generalState{
		g:        g,
		loss:     opt.Loss,
		nash:     nopt,
		priceTol: priceTol,
		loose:    loose,
		mc:       g.ManufacturingCost(),
		predErr:  math.Inf(1),
		warmPD:   opt.WarmPD,
		warmTau:  opt.WarmTau,
	}
	if st.warmTau != nil && len(st.warmTau) != g.M() {
		return fmt.Errorf("core: warm-start profile has %d entries for %d sellers", len(st.warmTau), g.M())
	}
	workers := nopt.Workers

	// stage1 golden-searches the buyer's price over [lo, hi]. Golden
	// evaluates its two initial interior points at the starting width and
	// one probe per shrink step after, so the k-th evaluation sees bracket
	// width W·invPhi^(k−1); each probe's Stage-2 call owes only the
	// Stage-3 accuracy that width warrants (measured against the full
	// bracket, exactly like the Stage-2 schedule).
	stage1 := func(lo, hi float64) (float64, error) {
		evals := 0
		w := hi - lo
		return numeric.GoldenMaxErr(func(pm float64) (float64, error) {
			width := w * math.Pow(numeric.InvPhi, float64(max(evals-1, 0)))
			evals++
			st.pmEvals++
			_, e, err := st.stage2(ctx, workers, pm, st.schedTol(st.nash.Tol, width/pmHi))
			if err != nil {
				return 0, err
			}
			return st.buyerProfit(pm, e), nil
		}, lo, hi, priceTol)
	}

	// The quadratic closed form is an excellent p^M guess for losses of
	// comparable curvature (exact for the quadratic itself), so Stage 1
	// first searches a window around it and falls back to the full
	// bracket when the windowed optimum presses against an edge.
	pmLo, pmW := 0.0, pmHi
	windowed := false
	if pmCenter > 0 {
		if lo, hi := 0.75*pmCenter, 1.25*pmCenter; hi < pmHi {
			pmLo, pmW = lo, hi
			windowed = true
		}
	}
	pmStar, err := stage1(pmLo, pmW)
	if err != nil {
		return fmt.Errorf("core: general solve: %w", err)
	}
	if windowed && (pmStar-pmLo < 4*priceTol || pmW-pmStar < 4*priceTol) {
		pmStar, err = stage1(0, pmHi)
		if err != nil {
			return fmt.Errorf("core: general solve: %w", err)
		}
	}

	// Final descent at full accuracy: the Stage-2 refit and the Stage-3
	// solves behind it reuse the memo, so the tight pass costs a handful
	// of warm-started sweeps.
	pdStar, eStar, err := st.stage2(ctx, workers, pmStar, st.nash.Tol)
	if err != nil {
		return fmt.Errorf("core: general solve: %w", err)
	}
	if opt.Stats != nil {
		*opt.Stats = st.stats
	}
	g.EvaluateProfileInto(pmStar, pdStar, eStar.tau, dst)
	// Seller profits under the general loss differ from the quadratic ones
	// EvaluateProfileInto assumes; recompute them.
	for i := range dst.SellerProfits {
		dst.SellerProfits[i] = g.GeneralSellerProfit(i, pdStar, eStar.tau, opt.Loss)
	}
	return nil
}
