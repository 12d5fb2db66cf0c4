package solve

import (
	"context"

	"share/internal/core"
	"share/internal/nash"
)

// General is the fully numerical backend for arbitrary privacy-loss
// functions — the "complicated function forms" of §5.1.1 where neither the
// Eq. 20 closed form nor the mean-field shortcut applies. Stage 3 is solved
// by the nash Jacobi iteration (fanned across Workers per the repo
// determinism convention: results are bit-identical for every worker count)
// and Stages 2 and 1 by nested golden-section search over the numerical
// reactions, i.e. core.SolveGeneralInto.
//
// The zero value — the registered "general" backend — uses the paper's
// quadratic loss, making it a numerical cross-check of the analytic path
// (they agree to well under 1e-6, which the test suite enforces). Custom
// losses plug in through LossFor.
//
// Successive Solve calls on one Prepared chain warm starts: the equilibrium
// τ-profile of round k seeds round k+1's first Stage-3 solve (prices drift
// little between rounds, so the carried profile converges in a sweep or
// two). Clone copies the carried profile, so a cloned Prepared solves
// identically whether its ancestor had warmed up or not is NOT guaranteed —
// what is guaranteed, and tested, is that the warm-started answer matches
// the cold one to the solver tolerances and that any fixed call sequence is
// bit-identical across worker counts. SolveFor starts from the chain but
// never advances it, so every quote against one prototype sees the same
// chain state.
type General struct {
	// LossFor builds the seller loss for a prepared game; nil selects the
	// quadratic loss (Eq. 11). It is called at each solve against the game
	// being solved — the Prepared's game carrying the solve's buyer — so
	// the closure sees current λ/ω values.
	LossFor func(g *core.Game) core.LossFunc
	// Workers bounds the Jacobi fan-out of the inner Stage-3 solves and the
	// speculative Stage-2 probe pairs; ≤ 0 means GOMAXPROCS (the
	// internal/parallel convention).
	Workers int
	// PriceTol is the golden-section tolerance of the nested price
	// searches; 0 selects the core default (1e-6).
	PriceTol float64
}

// Name implements Backend.
func (General) Name() string { return "general" }

// Precompute implements Backend. The snapshot accelerates the quadratic
// closed form used to bracket p^M and to warm-start every Stage-3 iteration.
func (b General) Precompute(g *core.Game) (Prepared, error) { return precompute(b, g) }

// Bind implements Backend. The bound Prepared starts with no warm-start
// chain, as a fresh Precompute does.
func (b General) Bind(g *core.Game) Prepared { return &generalPrepared{b: b, g: g} }

type generalPrepared struct {
	b     General
	g     *core.Game
	epoch uint64

	// Warm-start chain: the previous Solve's equilibrium profile and the
	// data price it was solved at, carried into the next Solve's Stage-3
	// seeding. Nil until the first Solve.
	warmPD  float64
	warmTau []float64
}

func (p *generalPrepared) Backend() Backend      { return p.b }
func (p *generalPrepared) Game() *core.Game      { return p.g }
func (p *generalPrepared) SetBuyer(b core.Buyer) { p.g.Buyer = b }
func (p *generalPrepared) Epoch() uint64         { return p.epoch }

// Reprepare applies one roster change incrementally and resizes the carried
// warm-start profile to the new roster instead of throwing it away: a
// leaving seller's τ entry is spliced out, a joiner is seeded at the
// carried profile's mean (prices drift little on single-seller churn, so
// the resized profile still lands within a sweep or two of the new
// equilibrium — the PR 8 warm-start payoff survives churn).
func (p *generalPrepared) Reprepare(d RosterDelta) error {
	if err := applyDelta(p.g, d); err != nil {
		return err
	}
	if old := p.warmTau; old != nil {
		switch {
		case d.Join && len(old) > 0:
			nt := make([]float64, len(old)+1)
			copy(nt, old)
			var s float64
			for _, t := range old {
				s += t
			}
			nt[len(old)] = s / float64(len(old))
			p.warmTau = nt
		case !d.Join && d.Index < len(old):
			nt := make([]float64, 0, len(old)-1)
			p.warmTau = append(append(nt, old[:d.Index]...), old[d.Index+1:]...)
		default:
			p.warmTau = nil // chain no longer describes the roster; cold start
		}
	}
	p.epoch = d.Epoch
	return nil
}

// Clone carries the warm-start chain: clones solve from wherever their
// ancestor's chain had converged to. Batch consumers clone each request from
// the same prototype, so every batch item still sees identical state.
func (p *generalPrepared) Clone() Prepared {
	return &generalPrepared{
		b:       p.b,
		g:       p.g.Clone(),
		epoch:   p.epoch,
		warmPD:  p.warmPD,
		warmTau: p.warmTau, // read-only by contract; never mutated in place
	}
}

// Solve runs the numerical backward induction under the backend's loss for
// the Prepared's own buyer, then advances the warm-start chain to the
// solved profile.
func (p *generalPrepared) Solve(ctx context.Context) (*core.Profile, error) {
	prof, err := solveFresh(ctx, p)
	if err != nil {
		return nil, err
	}
	p.warmPD = prof.PD
	p.warmTau = append([]float64(nil), prof.Tau...)
	return prof, nil
}

// SolveFor solves a private copy of the game header carrying b, seeded from
// the warm-start chain but never advancing it, and reports the cascade's
// effort on dst.Effort.
func (p *generalPrepared) SolveFor(ctx context.Context, b core.Buyer, dst *core.Profile) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	g := *p.g
	g.Buyer = b
	loss := g.QuadraticLoss()
	if p.b.LossFor != nil {
		loss = p.b.LossFor(&g)
	}
	warmTau := p.warmTau
	if warmTau != nil && len(warmTau) != g.M() {
		warmTau = nil // population changed since the last round; cold start
	}
	effort := new(core.GeneralStats)
	err := g.SolveGeneralInto(ctx, core.GeneralOptions{
		Loss:     loss,
		PriceTol: p.b.PriceTol,
		Nash: nash.Options{
			Sweep:   nash.Jacobi,
			Workers: p.b.Workers,
		},
		WarmPD:  p.warmPD,
		WarmTau: warmTau,
		Stats:   effort,
	}, dst)
	if err != nil {
		return err
	}
	dst.Effort = effort
	return nil
}
