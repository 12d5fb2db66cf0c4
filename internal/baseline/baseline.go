// Package baseline implements the comparator mechanisms Share is ablated
// against. The paper's central design choices are (a) letting seller
// selection emerge from the sellers' inner Nash competition instead of being
// imposed by the broker (as in Dealer and the CMAB market of An et al.), and
// (b) deriving absolute prices from the game instead of fixing them
// exogenously. Each baseline removes one of those choices while keeping the
// rest of the pipeline identical, so differences in outcome are attributable
// to the mechanism:
//
//   - FixedPrice: exogenous prices, sellers still Nash-compete (ablates the
//     Stackelberg price derivation).
//   - GreedyTopK: the broker hand-picks the k highest-weight sellers and
//     splits N equally among them (Dealer-style broker selection).
//   - RandomK: as GreedyTopK but with uniformly random winners.
//   - UniformAllocation: every seller receives N/m (no selection at all).
//
// Sellers remain rational everywhere: under an imposed allocation χᵢ a
// seller's profit p^D·χᵢτᵢ − λᵢ(χᵢτᵢ)² is maximized at τᵢ = p^D/(2λᵢχᵢ),
// clamped to [0, 1]; under the Nash allocation rule they play Eq. 20.
package baseline

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"share/internal/core"
	"share/internal/numeric"
)

// Outcome summarizes a mechanism's result in the same units as a
// core.Profile, so Share and the baselines can be tabled side by side.
type Outcome struct {
	// Name identifies the mechanism.
	Name string
	// PM and PD are the (possibly exogenous) unit prices.
	PM, PD float64
	// Tau and Chi are the realized fidelities and allocations.
	Tau, Chi []float64
	// QD and QM are the realized dataset and product qualities.
	QD, QM float64
	// BuyerProfit, BrokerProfit and SellerProfitTotal are the realized
	// profits (sellers aggregated).
	BuyerProfit, BrokerProfit, SellerProfitTotal float64
}

// evaluate computes an Outcome for explicit fidelities and allocations using
// the game's profit formulas (Eqs. 5–12) without the Eq. 13 allocation rule.
func evaluate(name string, g *core.Game, pM, pD float64, tau, chi []float64) *Outcome {
	var qD float64
	for i := range tau {
		qD += chi[i] * tau[i]
	}
	qM := g.ProductQuality(qD)
	o := &Outcome{
		Name: name, PM: pM, PD: pD,
		Tau: tau, Chi: chi,
		QD: qD, QM: qM,
		BuyerProfit:  g.Utility(qD) - pM*qM,
		BrokerProfit: pM*qM - g.ManufacturingCost() - pD*qD,
	}
	for i := range tau {
		q := chi[i] * tau[i]
		o.SellerProfitTotal += pD*q - g.Sellers.Lambda[i]*q*q
	}
	return o
}

// imposedResponse returns a seller's optimal fidelity when her allocation is
// fixed at chi (no competition): argmax p^D·χτ − λ(χτ)² = p^D/(2λχ), clamped
// to [0, 1]. A zero allocation leaves fidelity at zero.
func imposedResponse(pD, lambda, chi float64) float64 {
	if chi <= 0 || pD <= 0 {
		return 0
	}
	return numeric.Clamp(pD/(2*lambda*chi), 0, 1)
}

// Share runs the full Stackelberg-Nash mechanism and adapts its profile into
// an Outcome, for direct comparison.
func Share(g *core.Game) (*Outcome, error) {
	p, err := g.Solve()
	if err != nil {
		return nil, err
	}
	var sellers float64
	for _, s := range p.SellerProfits {
		sellers += s
	}
	return &Outcome{
		Name: "share", PM: p.PM, PD: p.PD,
		Tau: p.Tau, Chi: p.Chi, QD: p.QD, QM: p.QM,
		BuyerProfit: p.BuyerProfit, BrokerProfit: p.BrokerProfit,
		SellerProfitTotal: sellers,
	}, nil
}

// FixedPrice evaluates the market under exogenous prices: sellers still play
// their inner Nash game (Eq. 20 at the given p^D), but neither the buyer nor
// the broker optimizes. This ablates the game-derived absolute pricing.
func FixedPrice(g *core.Game, pM, pD float64) (*Outcome, error) {
	if pM < 0 || pD < 0 {
		return nil, fmt.Errorf("baseline: negative price (p^M=%g, p^D=%g)", pM, pD)
	}
	tau := g.Stage3Tau(pD)
	chi := g.Allocation(tau)
	return evaluate("fixed-price", g, pM, pD, tau, chi), nil
}

// GreedyTopK has the broker select the k sellers with the largest weights
// and split N equally among them — the Dealer-style broker-driven selection.
// Prices are taken from Share's equilibrium so only the selection rule
// differs.
func GreedyTopK(g *core.Game, pM, pD float64, k int) (*Outcome, error) {
	idx, err := topKByWeight(g, k)
	if err != nil {
		return nil, err
	}
	return imposed("greedy-topk", g, pM, pD, idx), nil
}

// RandomK selects k sellers uniformly at random and splits N equally.
func RandomK(g *core.Game, pM, pD float64, k int, rng *rand.Rand) (*Outcome, error) {
	m := g.M()
	if k <= 0 || k > m {
		return nil, fmt.Errorf("baseline: invalid selection size %d of %d sellers", k, m)
	}
	if rng == nil {
		return nil, errors.New("baseline: nil random source")
	}
	idx := rng.Perm(m)[:k]
	return imposed("random-k", g, pM, pD, idx), nil
}

// UniformAllocation gives every seller N/m pieces (no selection).
func UniformAllocation(g *core.Game, pM, pD float64) *Outcome {
	idx := make([]int, g.M())
	for i := range idx {
		idx[i] = i
	}
	return imposed("uniform", g, pM, pD, idx)
}

// imposed builds the outcome for an imposed equal split over the selected
// sellers, with each responding optimally to her own fixed allocation.
func imposed(name string, g *core.Game, pM, pD float64, selected []int) *Outcome {
	m := g.M()
	tau := make([]float64, m)
	chi := make([]float64, m)
	share := g.Buyer.N / float64(len(selected))
	for _, i := range selected {
		chi[i] = share
		tau[i] = imposedResponse(pD, g.Sellers.Lambda[i], share)
	}
	return evaluate(name, g, pM, pD, tau, chi)
}

func topKByWeight(g *core.Game, k int) ([]int, error) {
	m := g.M()
	if k <= 0 || k > m {
		return nil, fmt.Errorf("baseline: invalid selection size %d of %d sellers", k, m)
	}
	idx := make([]int, m)
	for i := range idx {
		idx[i] = i
	}
	w := g.Broker.Weights
	sort.SliceStable(idx, func(a, b int) bool { return w[idx[a]] > w[idx[b]] })
	return idx[:k], nil
}
