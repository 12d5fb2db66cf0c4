package solve

import (
	"context"

	"share/internal/core"
)

// Analytic is the closed-form backward-induction backend (Eqs. 20, 25, 27)
// wrapped around the PR 1 cache path: Precompute snapshots the seller
// aggregates once, clones carry the snapshot, and each Solve is O(1) in the
// Stage 1–2 work plus one O(m) Stage-3/evaluation pass. Exact for the
// paper's quadratic loss; bit-identical to calling core.Game.Solve directly.
type Analytic struct{}

// Name implements Backend.
func (Analytic) Name() string { return "analytic" }

// Precompute implements Backend.
func (a Analytic) Precompute(g *core.Game) (Prepared, error) { return precompute(a, g) }

// Bind implements Backend.
func (Analytic) Bind(g *core.Game) Prepared { return &analyticPrepared{g: g} }

type analyticPrepared struct {
	g *core.Game
}

func (p *analyticPrepared) Backend() Backend      { return Analytic{} }
func (p *analyticPrepared) Game() *core.Game      { return p.g }
func (p *analyticPrepared) SetBuyer(b core.Buyer) { p.g.Buyer = b }
func (p *analyticPrepared) Clone() Prepared       { return &analyticPrepared{g: p.g.Clone()} }

// Solve runs the cached closed-form backward induction for the Prepared's
// own buyer. With a live Precompute snapshot only the buyer parameters are
// re-validated; a seller mutation through Game() drops the snapshot and
// Solve transparently falls back to the full-validation path.
func (p *analyticPrepared) Solve(ctx context.Context) (*core.Profile, error) {
	return solveFresh(ctx, p)
}

// SolveFor solves a copy of the game header carrying b: the copy shares the
// seller slices and the Precompute snapshot, stays on the stack and leaves
// the Prepared untouched.
func (p *analyticPrepared) SolveFor(ctx context.Context, b core.Buyer, dst *core.Profile) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	g := *p.g
	g.Buyer = b
	return g.SolveInto(dst)
}
