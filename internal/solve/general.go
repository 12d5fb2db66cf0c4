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
// (they agree to well under 1e-6, which the test suite enforces).
//
// Every solve starts cold from the Eq. 20 closed form; within one solve,
// each Stage-3 probe warm-starts from the nearest price already probed.
type General struct {
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

// Bind implements Backend.
func (b General) Bind(g *core.Game) Prepared { return &generalPrepared{b: b, g: g} }

type generalPrepared struct {
	b General
	g *core.Game
}

func (p *generalPrepared) Backend() Backend      { return p.b }
func (p *generalPrepared) Game() *core.Game      { return p.g }
func (p *generalPrepared) SetBuyer(b core.Buyer) { p.g.Buyer = b }
func (p *generalPrepared) Clone() Prepared       { return &generalPrepared{b: p.b, g: p.g.Clone()} }

// Solve runs the numerical backward induction under the quadratic loss for
// the Prepared's own buyer.
func (p *generalPrepared) Solve(ctx context.Context) (*core.Profile, error) {
	return solveFresh(ctx, p)
}

// SolveFor solves a private copy of the game header carrying b and reports
// the cascade's effort on dst.Effort.
func (p *generalPrepared) SolveFor(ctx context.Context, b core.Buyer, dst *core.Profile) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	g := *p.g
	g.Buyer = b
	effort := new(core.GeneralStats)
	err := g.SolveGeneralInto(ctx, core.GeneralOptions{
		Loss:     g.QuadraticLoss(),
		PriceTol: p.b.PriceTol,
		Nash: nash.Options{
			Sweep:   nash.Jacobi,
			Workers: p.b.Workers,
		},
		Stats: effort,
	}, dst)
	if err != nil {
		return err
	}
	dst.Effort = effort
	return nil
}
