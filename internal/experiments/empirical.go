package experiments

import (
	"fmt"
	"math/rand"

	"share/internal/core"
	"share/internal/dataset"
	"share/internal/ldp"
	"share/internal/market"
	"share/internal/numeric"
	"share/internal/regress"
)

// Fig2cEmpirical is the model-in-the-loop variant of Fig. 2(c): instead of
// evaluating the buyer's profit from the analytic utility alone, each
// deviated fidelity profile triggers an actual data transaction — sellers
// perturb real rows under ε-LDP, the broker trains the regression product,
// and the buyer's utility uses the realized explained variance v̂ in place
// of the demanded v:
//
//	Φ̂ = θ₁·ln(1+ρ₁·q^D) + θ₂·ln(1+ρ₂·v̂) − p^M·q^D·v̂.
//
// This reproduces the effect the paper notes under its Fig. 2(c): "the
// change of the buyer's profit may be due to the effect of data on the
// model, which is not always predictable, causing the irregular curve of
// Φ(·)" — the analytic seller/broker curves stay smooth while the buyer's
// empirical curve picks up training noise.
func Fig2cEmpirical(g *core.Game, chunks []*dataset.Dataset, test *dataset.Dataset, mech ldp.Mechanism, rng *rand.Rand) (*Series, error) {
	if len(chunks) != g.M() {
		return nil, fmt.Errorf("experiments: %d chunks for %d sellers", len(chunks), g.M())
	}
	p, err := g.Solve()
	if err != nil {
		return nil, err
	}
	s := &Series{
		Name:    "fig2c-empirical",
		Title:   "Empirical profit vs τ₁ deviation (trained products)",
		XLabel:  "tau1",
		Columns: []string{"buyer_empirical", "buyer_analytic", "realized_v", "seller1"},
	}
	tau := append([]float64(nil), p.Tau...)
	for _, x := range numeric.Linspace(0.2*p.Tau[0], min2(1, 2*p.Tau[0]), 21) {
		tau[0] = x
		prof := g.EvaluateProfile(p.PM, p.PD, tau)

		// Execute the data transaction for this fidelity profile.
		pieces := market.IntegerAllocation(prof.Chi, int(g.Buyer.N+0.5))
		joinParts := make([]*dataset.Dataset, 0, len(chunks))
		for i, chunk := range chunks {
			if pieces[i] <= 0 {
				continue
			}
			eps := ldp.EpsilonForFidelity(tau[i])
			part := &dataset.Dataset{Features: chunk.Features, Target: chunk.Target}
			idx := rng.Perm(chunk.Len())
			if pieces[i] < len(idx) {
				idx = idx[:pieces[i]]
			}
			for _, j := range idx {
				off := len(part.X)
				part.X = append(part.X, chunk.Row(j)...)
				mech.Perturb(rng, part.X[off:], eps)
				part.Y = append(part.Y, chunk.Y[j])
			}
			joinParts = append(joinParts, part)
		}
		joined, err := dataset.Concat(joinParts...)
		if err != nil {
			return nil, err
		}
		realizedV := regress.ExplainedVariance(joined, test)
		if realizedV < 0 {
			realizedV = 0
		}

		// Empirical buyer profit with the realized performance.
		gEmp := g.Clone()
		gEmp.Buyer.V = maxF(realizedV, 1e-9)
		empirical := gEmp.Utility(prof.QD) - p.PM*prof.QD*realizedV

		s.Add(x, empirical, prof.BuyerProfit, realizedV, prof.SellerProfits[0])
	}
	return s, nil
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
