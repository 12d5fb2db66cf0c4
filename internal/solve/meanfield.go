package solve

import (
	"context"

	"share/internal/core"
)

// MeanField is the §5.1.1 approximation backend: Stages 1–2 use the closed
// forms (they depend only on the aggregate S = Σ1/λᵢ, which the alternative
// loss shares), and Stage 3 replaces the coupled Nash system with the
// mean-field optimum τᵢ* = 2p^D/(3λᵢ) (Eq. 23) — an O(m) solve with no
// iteration at all. Seller profits are evaluated under the alternative loss
// form λᵢχτ² the approximation is derived for (Eq. 22), and every Profile
// carries the Theorem 5.1 error interval plus whether the theorem's
// ω-scaling precondition actually held at the solved data price.
type MeanField struct{}

// Name implements Backend.
func (MeanField) Name() string { return "meanfield" }

// Precompute implements Backend. The snapshot still pays off here: the
// Stage 1–2 closed forms read the cached S = Σ1/λᵢ.
func (mf MeanField) Precompute(g *core.Game) (Prepared, error) { return precompute(mf, g) }

// Bind implements Backend.
func (MeanField) Bind(g *core.Game) Prepared { return &meanFieldPrepared{g: g} }

type meanFieldPrepared struct {
	g *core.Game
}

func (p *meanFieldPrepared) Backend() Backend      { return MeanField{} }
func (p *meanFieldPrepared) Game() *core.Game      { return p.g }
func (p *meanFieldPrepared) SetBuyer(b core.Buyer) { p.g.Buyer = b }
func (p *meanFieldPrepared) Clone() Prepared       { return &meanFieldPrepared{g: p.g.Clone()} }

// Solve runs backward induction with the mean-field Stage 3 for the
// Prepared's own buyer and attaches the Theorem 5.1 bound.
func (p *meanFieldPrepared) Solve(ctx context.Context) (*core.Profile, error) {
	return solveFresh(ctx, p)
}

// SolveFor solves a stack copy of the game header carrying b, as the
// analytic backend does, and reuses dst.Approx for the bound.
func (p *meanFieldPrepared) SolveFor(ctx context.Context, b core.Buyer, dst *core.Profile) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	g := *p.g
	g.Buyer = b
	if g.Precomputed() {
		if err := g.Buyer.Validate(); err != nil {
			return err
		}
	} else if err := g.Validate(); err != nil {
		return err
	}
	pm, err := g.Stage1PM()
	if err != nil {
		return err
	}
	pd := g.Stage2PD(pm)
	approx := dst.Approx // EvaluateProfileInto clears it
	dst.Tau = g.MeanFieldTauInto(pd, dst.Tau)
	g.EvaluateProfileInto(pm, pd, dst.Tau, dst)
	// EvaluateProfileInto assumes the quadratic loss; the mean-field strategy
	// is the optimum of the alternative form λᵢχτ² (Eq. 22), so seller
	// profits are re-evaluated under it. The allocation χ is already in the
	// profile and the expression is Eq. 22 term for term.
	for i := range dst.SellerProfits {
		chi, t := dst.Chi[i], dst.Tau[i]
		dst.SellerProfits[i] = pd*chi*t - g.Sellers.Lambda[i]*chi*t*t
	}
	if approx == nil {
		approx = new(core.ApproxBound)
	}
	lo, hi := core.Theorem51Bounds(g.M())
	*approx = core.ApproxBound{Lo: lo, Hi: hi, ConditionHolds: g.BoundCondition(pd)}
	dst.Approx = approx
	return nil
}
