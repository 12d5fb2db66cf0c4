package solve

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"share/internal/core"
	"share/internal/stat"
	"share/internal/translog"
)

// randomGame draws a game with m sellers: λ and ω uniform over a decade
// each, and a random buyer.
func randomGame(m int, rng *rand.Rand) *core.Game {
	g := &core.Game{
		Buyer:   randomBuyer(rng),
		Broker:  core.Broker{Cost: translog.PaperDefaults(), Weights: make([]float64, m)},
		Sellers: core.Sellers{Lambda: make([]float64, m)},
	}
	for i := 0; i < m; i++ {
		g.Sellers.Lambda[i] = 0.1 + 0.9*rng.Float64()
		g.Broker.Weights[i] = 0.2 + 1.8*rng.Float64()
	}
	return g
}

// randomBuyer draws a valid buyer around the paper's defaults.
func randomBuyer(rng *rand.Rand) core.Buyer {
	theta1 := 0.2 + 0.6*rng.Float64()
	return core.Buyer{
		N:      50 + 950*rng.Float64(),
		V:      0.5 + 0.45*rng.Float64(),
		Theta1: theta1,
		Theta2: 1 - theta1,
		Rho1:   0.1 + rng.Float64(),
		Rho2:   50 + 400*rng.Float64(),
	}
}

// protoState is everything SolveFor must leave untouched on a prototype.
type protoState struct {
	buyer          core.Buyer
	lambda, weight []float64
	lambda0        *float64
}

func captureProto(p Prepared) protoState {
	g := p.Game()
	return protoState{
		buyer:   g.Buyer,
		lambda:  append([]float64(nil), g.Sellers.Lambda...),
		weight:  append([]float64(nil), g.Broker.Weights...),
		lambda0: &g.Sellers.Lambda[0],
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// diffProfile reports the first field where got and want differ bit for
// bit, or "" when they are identical. Effort is compared on its counters;
// Stage3Time is wall-clock.
func diffProfile(got, want *core.Profile) string {
	scalars := []struct {
		name     string
		got, exp float64
	}{
		{"PM", got.PM, want.PM}, {"PD", got.PD, want.PD},
		{"QD", got.QD, want.QD}, {"QM", got.QM, want.QM},
		{"BuyerProfit", got.BuyerProfit, want.BuyerProfit},
		{"BrokerProfit", got.BrokerProfit, want.BrokerProfit},
	}
	for _, s := range scalars {
		if math.Float64bits(s.got) != math.Float64bits(s.exp) {
			return fmt.Sprintf("%s = %v, want %v", s.name, s.got, s.exp)
		}
	}
	vectors := []struct {
		name     string
		got, exp []float64
	}{
		{"Tau", got.Tau, want.Tau}, {"Chi", got.Chi, want.Chi},
		{"SellerProfits", got.SellerProfits, want.SellerProfits},
	}
	for _, v := range vectors {
		if !sameBits(v.got, v.exp) {
			return fmt.Sprintf("%s = %v, want %v", v.name, v.got, v.exp)
		}
	}
	switch {
	case (got.Approx == nil) != (want.Approx == nil):
		return fmt.Sprintf("Approx = %v, want %v", got.Approx, want.Approx)
	case got.Approx != nil && (math.Float64bits(got.Approx.Lo) != math.Float64bits(want.Approx.Lo) ||
		math.Float64bits(got.Approx.Hi) != math.Float64bits(want.Approx.Hi) ||
		got.Approx.ConditionHolds != want.Approx.ConditionHolds):
		return fmt.Sprintf("Approx = %+v, want %+v", *got.Approx, *want.Approx)
	case (got.Effort == nil) != (want.Effort == nil):
		return fmt.Sprintf("Effort = %v, want %v", got.Effort, want.Effort)
	case got.Effort != nil && (got.Effort.Stage3Solves != want.Effort.Stage3Solves ||
		got.Effort.Stage3Sweeps != want.Effort.Stage3Sweeps || got.Effort.MemoHits != want.Effort.MemoHits):
		return fmt.Sprintf("Effort = %+v, want %+v", *got.Effort, *want.Effort)
	}
	return ""
}

// TestSolveForMatchesCloneSolve pins SolveFor to the Clone → SetBuyer →
// Solve path it replaces on the quote path: for every backend, over
// generated games and buyers, SolveFor into a fresh profile and into one
// left dirty by a different roster size or backend must agree bit for bit,
// and must leave the prototype's game as it was.
func TestSolveForMatchesCloneSolve(t *testing.T) {
	ctx := context.Background()
	rng := stat.NewRand(18)
	var dirty core.Profile // carried across cases: grows, shrinks, switches backend
	for _, m := range []int{12, 1, 100, 2} {
		g := randomGame(m, rng)
		for _, name := range Names() {
			b, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			proto, err := b.Precompute(g)
			if err != nil {
				t.Fatalf("m=%d %s: Precompute: %v", m, name, err)
			}
			before := captureProto(proto)
			for k := 0; k < 2; k++ {
				buyer := randomBuyer(rng)
				clone := proto.Clone()
				clone.SetBuyer(buyer)
				want, err := clone.Solve(ctx)
				if err != nil {
					t.Fatalf("m=%d %s buyer %d: Clone+Solve: %v", m, name, k, err)
				}
				var fresh core.Profile
				if err := proto.SolveFor(ctx, buyer, &fresh); err != nil {
					t.Fatalf("m=%d %s buyer %d: SolveFor: %v", m, name, k, err)
				}
				if d := diffProfile(&fresh, want); d != "" {
					t.Errorf("m=%d %s buyer %d: SolveFor into a fresh profile: %s", m, name, k, d)
				}
				if err := proto.SolveFor(ctx, buyer, &dirty); err != nil {
					t.Fatalf("m=%d %s buyer %d: SolveFor (dirty): %v", m, name, k, err)
				}
				if d := diffProfile(&dirty, want); d != "" {
					t.Errorf("m=%d %s buyer %d: SolveFor into a reused profile: %s", m, name, k, d)
				}
			}
			after := captureProto(proto)
			if after.buyer != before.buyer || !sameBits(after.lambda, before.lambda) ||
				!sameBits(after.weight, before.weight) || after.lambda0 != before.lambda0 {
				t.Errorf("m=%d %s: SolveFor wrote to the prototype's game", m, name)
			}
			if !proto.Game().Precomputed() {
				t.Errorf("m=%d %s: SolveFor dropped the prototype's Precompute snapshot", m, name)
			}
		}
	}
}

// TestBindMatchesPrecompute pins Bind to the Precompute it shares a game
// in place of: for every backend, over generated games, a Prepared bound
// to one precomputed game must solve every buyer bit for bit like a
// Precompute of the same game, through SolveFor and through a Clone, and
// leave the shared game as it was, also when the game is another
// Prepared's own.
func TestBindMatchesPrecompute(t *testing.T) {
	ctx := context.Background()
	rng := stat.NewRand(21)
	for _, m := range []int{1, 2, 12, 100} {
		g := randomGame(m, rng)
		shared := g.Clone()
		if err := shared.Precompute(); err != nil {
			t.Fatal(err)
		}
		for _, name := range Names() {
			b, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := b.Precompute(g)
			if err != nil {
				t.Fatalf("m=%d %s: Precompute: %v", m, name, err)
			}
			owner, err := b.Precompute(g)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				what  string
				proto Prepared
			}{{"bound", b.Bind(shared)}, {"bound to another Prepared's game", b.Bind(owner.Game())}} {
				before := captureProto(c.proto)
				for k := 0; k < 2; k++ {
					buyer := randomBuyer(rng)
					var want, got core.Profile
					if err := ref.SolveFor(ctx, buyer, &want); err != nil {
						t.Fatalf("m=%d %s buyer %d: Precompute's SolveFor: %v", m, name, k, err)
					}
					if err := c.proto.SolveFor(ctx, buyer, &got); err != nil {
						t.Fatalf("m=%d %s %s buyer %d: SolveFor: %v", m, name, c.what, k, err)
					}
					if d := diffProfile(&got, &want); d != "" {
						t.Errorf("m=%d %s %s buyer %d: SolveFor: %s", m, name, c.what, k, d)
					}
					clone := c.proto.Clone()
					clone.SetBuyer(buyer)
					cloned, err := clone.Solve(ctx)
					if err != nil {
						t.Fatalf("m=%d %s %s buyer %d: Clone+Solve: %v", m, name, c.what, k, err)
					}
					if d := diffProfile(cloned, &want); d != "" {
						t.Errorf("m=%d %s %s buyer %d: Clone+Solve: %s", m, name, c.what, k, d)
					}
				}
				after := captureProto(c.proto)
				if after.buyer != before.buyer || !sameBits(after.lambda, before.lambda) ||
					!sameBits(after.weight, before.weight) || after.lambda0 != before.lambda0 ||
					!c.proto.Game().Precomputed() {
					t.Errorf("m=%d %s %s: solving wrote to the shared game", m, name, c.what)
				}
			}
		}
		if shared.Buyer != g.Buyer || !sameBits(shared.Sellers.Lambda, g.Sellers.Lambda) ||
			!sameBits(shared.Broker.Weights, g.Broker.Weights) {
			t.Errorf("m=%d: the shared game no longer matches the game it was cloned from", m)
		}
	}
}
