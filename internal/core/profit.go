package core

import (
	"math"
)

// Allocation computes the data quantity χᵢ each seller sells under fidelity
// profile tau (Eq. 13): χᵢ = N·ωᵢτᵢ / Σⱼωⱼτⱼ. If every seller offers zero
// fidelity the allocation is zero for everyone (no data changes hands).
func (g *Game) Allocation(tau []float64) []float64 {
	chi := make([]float64, len(tau))
	var denom float64
	for j, t := range tau {
		denom += g.Broker.Weights[j] * t
	}
	if denom <= 0 {
		return chi
	}
	for i, t := range tau {
		chi[i] = g.Buyer.N * g.Broker.Weights[i] * t / denom
	}
	return chi
}

// SellerQuality returns q^D_i = g(χᵢ, τᵢ) = χᵢ·τᵢ, the dataset quality seller
// i contributes (the paper's instantiation in §5.1.1).
func SellerQuality(chi, tau float64) float64 { return chi * tau }

// DatasetQuality returns the total manufacturing dataset quality
// q^D = Σᵢ χᵢτᵢ under fidelity profile tau.
func (g *Game) DatasetQuality(tau []float64) float64 {
	chi := g.Allocation(tau)
	var q float64
	for i, t := range tau {
		q += SellerQuality(chi[i], t)
	}
	return q
}

// ProductQuality returns q^M = h(q^D, v) = q^D·v, the paper's instantiation
// of product quality (§5.1.2).
func (g *Game) ProductQuality(qD float64) float64 { return qD * g.Buyer.V }

// Utility returns the buyer's product utility U(χ, τ, v) =
// θ₁·ln(1+ρ₁q^D) + θ₂·ln(1+ρ₂v) (Eqs. 5–6).
func (g *Game) Utility(qD float64) float64 {
	return g.Buyer.Theta1*math.Log(1+g.Buyer.Rho1*qD) +
		g.Buyer.Theta2*math.Log(1+g.Buyer.Rho2*g.Buyer.V)
}

// BuyerProfit evaluates Φ(p^M, τ) = U − p^M·q^M (Eq. 7) for an arbitrary
// product price and fidelity profile.
func (g *Game) BuyerProfit(pM float64, tau []float64) float64 {
	qD := g.DatasetQuality(tau)
	return g.Utility(qD) - pM*g.ProductQuality(qD)
}

// ManufacturingCost returns C(N, v) from the broker's translog parameters
// (Eq. 8).
func (g *Game) ManufacturingCost() float64 {
	return g.Broker.Cost.MustCost(g.Buyer.N, g.Buyer.V)
}

// BrokerProfit evaluates Ω(p^M, p^D, τ) = p^M·q^M − C(N, v) − p^D·q^D
// (Eq. 9).
func (g *Game) BrokerProfit(pM, pD float64, tau []float64) float64 {
	qD := g.DatasetQuality(tau)
	return pM*g.ProductQuality(qD) - g.ManufacturingCost() - pD*qD
}

// SellerProfit evaluates Ψᵢ(p^D, τ) = p^D·q^D_i − λᵢ(χᵢτᵢ)² (Eq. 12) for
// seller i under an arbitrary fidelity profile. The profile couples sellers
// through the allocation rule: raising τᵢ wins seller i a larger χᵢ at the
// expense of the others.
func (g *Game) SellerProfit(i int, pD float64, tau []float64) float64 {
	chi := g.Allocation(tau)
	q := SellerQuality(chi[i], tau[i])
	return pD*q - g.Sellers.Lambda[i]*q*q
}

// DeviationProfits evaluates the buyer's and broker's profits plus the first
// len(sellerProfits) sellers' profits at an arbitrary profile (pM, pD, tau)
// without materializing a Profile — the allocation-free evaluator behind the
// Fig. 2 deviation sweeps, which re-evaluate thousands of profiles but read
// only a handful of fields from each. Every arithmetic expression and the
// qD accumulation order match EvaluateProfile exactly, so the returned
// values are bit-identical to the corresponding Profile fields.
func (g *Game) DeviationProfits(pM, pD float64, tau []float64, sellerProfits []float64) (buyerProfit, brokerProfit float64) {
	var denom float64
	for j, t := range tau {
		denom += g.Broker.Weights[j] * t
	}
	var qD float64
	if denom > 0 {
		for i, t := range tau {
			c := g.Buyer.N * g.Broker.Weights[i] * t / denom
			q := c * t
			qD += q
			if i < len(sellerProfits) {
				sellerProfits[i] = pD*q - g.Sellers.Lambda[i]*q*q
			}
		}
	} else {
		for i := range sellerProfits {
			sellerProfits[i] = 0
		}
	}
	qM := g.ProductQuality(qD)
	return g.Utility(qD) - pM*qM, pM*qM - g.ManufacturingCost() - pD*qD
}
