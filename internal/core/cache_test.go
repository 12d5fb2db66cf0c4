package core

import (
	"math"
	"reflect"
	"testing"

	"share/internal/stat"
)

// TestSolveCachedBitIdentical is the core guarantee of the Precompute fast
// path: cached and uncached solves produce bit-for-bit identical profiles
// (the cache stores the same intermediate values the uncached path computes,
// summed in the same order).
func TestSolveCachedBitIdentical(t *testing.T) {
	for _, m := range []int{1, 2, 17, 100, 1000} {
		g := PaperGame(m, stat.NewRand(99))
		plain, err := g.Solve()
		if err != nil {
			t.Fatalf("m=%d Solve: %v", m, err)
		}
		if err := g.Precompute(); err != nil {
			t.Fatalf("m=%d Precompute: %v", m, err)
		}
		cached, err := g.SolveValidated()
		if err != nil {
			t.Fatalf("m=%d SolveValidated: %v", m, err)
		}
		if plain.PM != cached.PM || plain.PD != cached.PD {
			t.Fatalf("m=%d: cached prices (%v, %v) != uncached (%v, %v)",
				m, cached.PM, cached.PD, plain.PM, plain.PD)
		}
		for i := range plain.Tau {
			if plain.Tau[i] != cached.Tau[i] || plain.Chi[i] != cached.Chi[i] ||
				plain.SellerProfits[i] != cached.SellerProfits[i] {
				t.Fatalf("m=%d seller %d: cached profile differs from uncached", m, i)
			}
		}
		if plain.BuyerProfit != cached.BuyerProfit || plain.BrokerProfit != cached.BrokerProfit {
			t.Fatalf("m=%d: cached profits differ from uncached", m)
		}
	}
}

func TestPrecomputeAggregatesMatch(t *testing.T) {
	g := PaperGame(50, stat.NewRand(3))
	wantS, wantW := g.SumInvLambda(), g.SumSqrtWeightOverLambda()
	if err := g.Precompute(); err != nil {
		t.Fatal(err)
	}
	if got := g.SumInvLambda(); got != wantS {
		t.Errorf("cached SumInvLambda = %v, want %v", got, wantS)
	}
	if got := g.SumSqrtWeightOverLambda(); got != wantW {
		t.Errorf("cached SumSqrtWeightOverLambda = %v, want %v", got, wantW)
	}
}

func TestPrecomputeRejectsInvalidGame(t *testing.T) {
	g := PaperGame(5, stat.NewRand(4))
	g.Sellers.Lambda[2] = -1
	if err := g.Precompute(); err == nil {
		t.Fatal("Precompute accepted a negative λ")
	}
	// A failed Precompute must not leave a snapshot behind.
	g.Sellers.Lambda[2] = 0.5
	if got, want := g.SumInvLambda(), sumInv(g.Sellers.Lambda); got != want {
		t.Errorf("after failed Precompute: SumInvLambda = %v, want fresh %v", got, want)
	}
}

// TestSetMutatorsInvalidate: SetLambda/SetWeight drop the snapshot so the
// next solve sees the new parameters.
func TestSetMutatorsInvalidate(t *testing.T) {
	g := PaperGame(10, stat.NewRand(5))
	if err := g.Precompute(); err != nil {
		t.Fatal(err)
	}
	before := g.SumInvLambda()
	g.SetLambda(0, g.Sellers.Lambda[0]/2)
	after := g.SumInvLambda()
	if after == before {
		t.Error("SetLambda did not invalidate the cached SumInvLambda")
	}
	if want := sumInv(g.Sellers.Lambda); after != want {
		t.Errorf("SumInvLambda after SetLambda = %v, want %v", after, want)
	}

	if err := g.Precompute(); err != nil {
		t.Fatal(err)
	}
	w0 := g.SumSqrtWeightOverLambda()
	g.SetWeight(0, g.Broker.Weights[0]*4)
	if g.SumSqrtWeightOverLambda() == w0 {
		t.Error("SetWeight did not invalidate the cached aggregate")
	}
}

// TestSliceReplacementInvalidates: replacing or truncating the seller slices
// is caught by the pointer/length guard without an explicit Invalidate.
func TestSliceReplacementInvalidates(t *testing.T) {
	g := PaperGame(10, stat.NewRand(6))
	if err := g.Precompute(); err != nil {
		t.Fatal(err)
	}
	g.Sellers.Lambda = append([]float64(nil), g.Sellers.Lambda...)
	for i := range g.Sellers.Lambda {
		g.Sellers.Lambda[i] *= 3
	}
	if want := sumInv(g.Sellers.Lambda); g.SumInvLambda() != want {
		t.Error("slice replacement served a stale SumInvLambda")
	}

	if err := g.Precompute(); err != nil {
		t.Fatal(err)
	}
	g.Sellers.Lambda = g.Sellers.Lambda[:4]
	if _, err := g.Solve(); err == nil {
		t.Error("Solve accepted mismatched seller counts after truncation (stale validation)")
	}
}

// TestInvalidateAfterDirectWrite documents the escape hatch for in-place
// element writes.
func TestInvalidateAfterDirectWrite(t *testing.T) {
	g := PaperGame(10, stat.NewRand(7))
	if err := g.Precompute(); err != nil {
		t.Fatal(err)
	}
	g.Sellers.Lambda[3] *= 10
	g.Invalidate()
	if want := sumInv(g.Sellers.Lambda); g.SumInvLambda() != want {
		t.Errorf("SumInvLambda after Invalidate = %v, want %v", g.SumInvLambda(), want)
	}
}

// TestCloneCarriesSnapshot: clones keep the O(1) fast path, and mutating the
// clone never leaks back into the original.
func TestCloneCarriesSnapshot(t *testing.T) {
	g := PaperGame(20, stat.NewRand(8))
	if err := g.Precompute(); err != nil {
		t.Fatal(err)
	}
	c := g.Clone()
	cp, err := c.SolveValidated()
	if err != nil {
		t.Fatal(err)
	}
	gp, err := g.SolveValidated()
	if err != nil {
		t.Fatal(err)
	}
	if cp.PM != gp.PM {
		t.Errorf("clone solve %v != original %v", cp.PM, gp.PM)
	}

	c.SetLambda(0, c.Sellers.Lambda[0]*5)
	if g.SumInvLambda() == c.SumInvLambda() {
		t.Error("mutating the clone changed the original's aggregate")
	}
	if want := sumInv(c.Sellers.Lambda); c.SumInvLambda() != want {
		t.Errorf("clone aggregate stale after SetLambda: %v, want %v", c.SumInvLambda(), want)
	}
}

// TestSolveStillValidatesBuyerWhenCached: the cached Solve path keeps the
// O(1) buyer validation so buyer-parameter sweeps cannot slip invalid
// values through.
func TestSolveStillValidatesBuyerWhenCached(t *testing.T) {
	g := PaperGame(10, stat.NewRand(9))
	if err := g.Precompute(); err != nil {
		t.Fatal(err)
	}
	g.Buyer.Theta1, g.Buyer.Theta2 = 1.5, -0.5
	if _, err := g.Solve(); err == nil {
		t.Error("cached Solve accepted θ₁ = 1.5")
	}
}

func TestStage3TauCachedBitIdentical(t *testing.T) {
	g := PaperGame(64, stat.NewRand(10))
	for _, pd := range []float64{0, 0.001, 0.02, 0.5, 10} {
		plain := g.Stage3Tau(pd)
		if err := g.Precompute(); err != nil {
			t.Fatal(err)
		}
		cached := g.Stage3Tau(pd)
		g.Invalidate()
		for i := range plain {
			if plain[i] != cached[i] {
				t.Fatalf("pd=%g seller %d: cached τ=%v, uncached τ=%v (want bit-exact)",
					pd, i, cached[i], plain[i])
			}
		}
	}
}

// TestDeviationProfitsBitIdentical pins the allocation-free sweep evaluator
// to EvaluateProfile: identical bits for buyer, broker and the requested
// seller profits, cached or not, including the zero-fidelity edge case. The
// Into forms must match too when they write into buffers and a profile left
// dirty by the previous roster size or price.
func TestDeviationProfitsBitIdentical(t *testing.T) {
	var tauBuf, mfBuf []float64
	var dirty Profile
	for _, m := range []int{2, 17, 400} {
		g := PaperGame(m, stat.NewRand(99))
		for _, precompute := range []bool{false, true} {
			if precompute {
				if err := g.Precompute(); err != nil {
					t.Fatal(err)
				}
			}
			for _, pd := range []float64{0, 0.01, 0.05} {
				tau := g.Stage3Tau(pd)
				tauBuf = g.Stage3TauInto(pd, tauBuf)
				if !reflect.DeepEqual(tauBuf, tau) {
					t.Fatalf("m=%d pd=%g: Stage3TauInto = %v, Stage3Tau = %v", m, pd, tauBuf, tau)
				}
				mfBuf = g.MeanFieldTauInto(pd, mfBuf)
				if mf := g.MeanFieldTau(pd); !reflect.DeepEqual(mfBuf, mf) {
					t.Fatalf("m=%d pd=%g: MeanFieldTauInto = %v, MeanFieldTau = %v", m, pd, mfBuf, mf)
				}
				prof := g.EvaluateProfile(0.04, pd, tau)
				g.EvaluateProfileInto(0.04, pd, tau, &dirty)
				if !reflect.DeepEqual(&dirty, prof) {
					t.Fatalf("m=%d pd=%g: EvaluateProfileInto = %+v, EvaluateProfile = %+v", m, pd, dirty, *prof)
				}
				sp := make([]float64, 2)
				buyer, broker := g.DeviationProfits(0.04, pd, tau, sp)
				if buyer != prof.BuyerProfit || broker != prof.BrokerProfit {
					t.Fatalf("m=%d pd=%g: DeviationProfits (%g, %g) != Profile (%g, %g)",
						m, pd, buyer, broker, prof.BuyerProfit, prof.BrokerProfit)
				}
				for i := range sp {
					if sp[i] != prof.SellerProfits[i] {
						t.Fatalf("m=%d pd=%g: seller %d profit %g != %g", m, pd, i, sp[i], prof.SellerProfits[i])
					}
				}
			}
		}
	}
}

func sumInv(lambda []float64) float64 {
	var s float64
	for _, l := range lambda {
		s += 1 / l
	}
	return s
}

// sanity: the guard must not misfire on ordinary precomputed games.
func TestCachedGuardAcceptsValidSnapshot(t *testing.T) {
	g := PaperGame(5, stat.NewRand(11))
	if err := g.Precompute(); err != nil {
		t.Fatal(err)
	}
	if g.cached() == nil {
		t.Fatal("guard rejected a fresh snapshot")
	}
	if math.IsNaN(g.cached().sumSqrtWL) {
		t.Fatal("snapshot holds NaN aggregate")
	}
}
