package baseline

import (
	"math"
	"testing"

	"share/internal/core"
	"share/internal/stat"
)

func testGame(t *testing.T, m int, seed int64) *core.Game {
	t.Helper()
	g := core.PaperGame(m, stat.NewRand(seed))
	if err := g.Validate(); err != nil {
		t.Fatalf("game invalid: %v", err)
	}
	return g
}

func TestShareOutcomeMatchesSolve(t *testing.T) {
	g := testGame(t, 20, 1)
	o, err := Share(g)
	if err != nil {
		t.Fatalf("Share: %v", err)
	}
	p, err := g.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if o.PM != p.PM || o.PD != p.PD || o.QD != p.QD {
		t.Error("Share outcome diverges from Solve")
	}
	var sellers float64
	for _, s := range p.SellerProfits {
		sellers += s
	}
	if math.Abs(o.SellerProfitTotal-sellers) > 1e-12 {
		t.Errorf("seller total = %v, want %v", o.SellerProfitTotal, sellers)
	}
}

func TestFixedPriceSellersStillReact(t *testing.T) {
	g := testGame(t, 15, 2)
	o, err := FixedPrice(g, 0.05, 0.02)
	if err != nil {
		t.Fatalf("FixedPrice: %v", err)
	}
	want := g.Stage3Tau(0.02)
	for i := range want {
		if math.Abs(o.Tau[i]-want[i]) > 1e-12 {
			t.Errorf("τ[%d] = %v, want Eq. 20 reaction %v", i, o.Tau[i], want[i])
		}
	}
	if _, err := FixedPrice(g, -1, 0.02); err == nil {
		t.Error("accepted a negative price")
	}
}

// The headline ablation claim: at Share's own equilibrium prices, no
// broker-imposed selection (greedy/random/uniform) extracts more dataset
// quality than the Nash competition does — and the buyer is never better
// off under imposed selection.
func TestShareSelectionBeatsImposedSelection(t *testing.T) {
	g := testGame(t, 40, 3)
	share, err := Share(g)
	if err != nil {
		t.Fatalf("Share: %v", err)
	}
	rng := stat.NewRand(4)
	greedy, err := GreedyTopK(g, share.PM, share.PD, 10)
	if err != nil {
		t.Fatalf("GreedyTopK: %v", err)
	}
	random, err := RandomK(g, share.PM, share.PD, 10, rng)
	if err != nil {
		t.Fatalf("RandomK: %v", err)
	}
	uniform := UniformAllocation(g, share.PM, share.PD)
	for _, o := range []*Outcome{greedy, random, uniform} {
		if o.QD > share.QD+1e-9 {
			t.Errorf("%s extracts more quality (%v) than Share (%v)", o.Name, o.QD, share.QD)
		}
		if o.BuyerProfit > share.BuyerProfit+1e-9 {
			t.Errorf("%s gives the buyer more profit (%v) than Share (%v)", o.Name, o.BuyerProfit, share.BuyerProfit)
		}
	}
}

func TestImposedAllocationsSumToN(t *testing.T) {
	g := testGame(t, 12, 5)
	share, _ := Share(g)
	uniform := UniformAllocation(g, share.PM, share.PD)
	var total float64
	for _, c := range uniform.Chi {
		total += c
	}
	if math.Abs(total-g.Buyer.N) > 1e-9 {
		t.Errorf("uniform Σχ = %v, want %v", total, g.Buyer.N)
	}
	greedy, _ := GreedyTopK(g, share.PM, share.PD, 3)
	total = 0
	selected := 0
	for _, c := range greedy.Chi {
		total += c
		if c > 0 {
			selected++
		}
	}
	if math.Abs(total-g.Buyer.N) > 1e-9 || selected != 3 {
		t.Errorf("greedy: Σχ = %v over %d sellers, want %v over 3", total, selected, g.Buyer.N)
	}
}

func TestGreedyPicksHighestWeights(t *testing.T) {
	g := testGame(t, 5, 6)
	g.Broker.Weights = []float64{0.1, 0.5, 0.2, 0.9, 0.3}
	o, err := GreedyTopK(g, 0.05, 0.02, 2)
	if err != nil {
		t.Fatalf("GreedyTopK: %v", err)
	}
	if o.Chi[3] == 0 || o.Chi[1] == 0 {
		t.Errorf("greedy should select sellers 3 and 1: χ = %v", o.Chi)
	}
	for _, i := range []int{0, 2, 4} {
		if o.Chi[i] != 0 {
			t.Errorf("greedy selected low-weight seller %d", i)
		}
	}
}

func TestSelectionValidation(t *testing.T) {
	g := testGame(t, 5, 7)
	if _, err := GreedyTopK(g, 0.05, 0.02, 0); err == nil {
		t.Error("accepted k = 0")
	}
	if _, err := GreedyTopK(g, 0.05, 0.02, 6); err == nil {
		t.Error("accepted k > m")
	}
	if _, err := RandomK(g, 0.05, 0.02, 2, nil); err == nil {
		t.Error("accepted nil rng")
	}
}

func TestImposedResponseSellerRationality(t *testing.T) {
	// Under an imposed allocation the chosen fidelity maximizes the
	// seller's profit: verify against a grid.
	pD, lambda, chi := 0.05, 0.4, 80.0
	best := imposedResponse(pD, lambda, chi)
	profit := func(tau float64) float64 {
		q := chi * tau
		return pD*q - lambda*q*q
	}
	base := profit(best)
	for _, tau := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if profit(tau) > base+1e-12 {
			t.Errorf("imposed response %v beaten by τ = %v", best, tau)
		}
	}
	if got := imposedResponse(pD, lambda, 0); got != 0 {
		t.Errorf("zero allocation should yield zero fidelity, got %v", got)
	}
}
