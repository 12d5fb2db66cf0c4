package core

import (
	"math"
	"slices"
	"testing"

	"share/internal/stat"
)

// nextRoster builds the game for the roster after one change the way a
// market does — a join appends (λ, ω) to capacity-capped slices, so the
// append copies; a leave deletes seller idx from copies — and precomputes
// it from scratch. g is left as it was. The game is returned with
// Precompute's error, unprecomputed when that error is not nil.
func nextRoster(g *Game, join bool, idx int, lambda, weight float64) (*Game, error) {
	n := g.M()
	next := &Game{Buyer: g.Buyer, Broker: Broker{Cost: g.Broker.Cost}}
	if join {
		next.Sellers.Lambda = append(g.Sellers.Lambda[:n:n], lambda)
		next.Broker.Weights = append(g.Broker.Weights[:n:n], weight)
	} else {
		next.Sellers.Lambda = slices.Delete(slices.Clone(g.Sellers.Lambda), idx, idx+1)
		next.Broker.Weights = slices.Delete(slices.Clone(g.Broker.Weights), idx, idx+1)
	}
	return next, next.Precompute()
}

// freshTwin rebuilds a game from copies of g's slices and precomputes it
// from scratch — the reference every churned game is held against.
func freshTwin(t *testing.T, g *Game) *Game {
	t.Helper()
	f := &Game{
		Buyer:   g.Buyer,
		Broker:  Broker{Cost: g.Broker.Cost, Weights: slices.Clone(g.Broker.Weights)},
		Sellers: Sellers{Lambda: slices.Clone(g.Sellers.Lambda)},
	}
	if err := f.Precompute(); err != nil {
		t.Fatalf("precomputing fresh twin: %v", err)
	}
	return f
}

// sameProfile reports whether a and b agree bit for bit in PM, PD and τ.
func sameProfile(a, b *Profile) bool {
	if math.Float64bits(a.PM) != math.Float64bits(b.PM) ||
		math.Float64bits(a.PD) != math.Float64bits(b.PD) || len(a.Tau) != len(b.Tau) {
		return false
	}
	for i := range a.Tau {
		if math.Float64bits(a.Tau[i]) != math.Float64bits(b.Tau[i]) {
			return false
		}
	}
	return true
}

func mustSolve(t *testing.T, g *Game, what string) *Profile {
	t.Helper()
	p, err := g.Solve()
	if err != nil {
		t.Fatalf("solving %s: %v", what, err)
	}
	return p
}

// assertAgreesWithFresh requires g's aggregates and equilibrium to equal
// its fresh twin's bit for bit.
func assertAgreesWithFresh(t *testing.T, g *Game) {
	t.Helper()
	f := freshTwin(t, g)
	if a, b := g.SumInvLambda(), f.SumInvLambda(); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("SumInvLambda: churned %v, fresh %v", a, b)
	}
	if a, b := g.SumSqrtWeightOverLambda(), f.SumSqrtWeightOverLambda(); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("SumSqrtWeightOverLambda: churned %v, fresh %v", a, b)
	}
	gp, fp := mustSolve(t, g, "churned game"), mustSolve(t, f, "fresh twin")
	if !sameProfile(gp, fp) {
		t.Fatalf("churned equilibrium (PM %v, PD %v) differs from fresh (PM %v, PD %v) or in τ", gp.PM, gp.PD, fp.PM, fp.PD)
	}
}

// TestRosterChurnMatchesFreshPrecompute runs 200 random joins and leaves
// from a 40-seller game. After every step the game for the new roster must
// equal a fresh Precompute of copies of its slices bit for bit, and the
// game it was built from, and a clone of that game sharing its precomputed
// √(ωλ) vector, must still solve as they did before the step.
func TestRosterChurnMatchesFreshPrecompute(t *testing.T) {
	g := paperTestGame(t, 40, 11)
	if err := g.Precompute(); err != nil {
		t.Fatalf("precompute: %v", err)
	}
	rng := stat.NewRand(23)
	for step := 0; step < 200; step++ {
		clone := g.Clone()
		before := mustSolve(t, g, "the previous roster")
		var next *Game
		var err error
		if g.M() > 2 && rng.Float64() < 0.4 {
			next, err = nextRoster(g, false, rng.Intn(g.M()), 0, 0)
		} else {
			next, err = nextRoster(g, true, 0, 0.2+rng.Float64(), 0.5+rng.Float64())
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !next.Precomputed() {
			t.Fatalf("step %d: the new roster's game has no snapshot", step)
		}
		assertAgreesWithFresh(t, next)
		if !sameProfile(mustSolve(t, g, "the previous roster"), before) {
			t.Fatalf("step %d: the roster change disturbed the previous game", step)
		}
		if !sameProfile(mustSolve(t, clone, "a clone of the previous roster"), before) {
			t.Fatalf("step %d: the roster change disturbed a clone of the previous game", step)
		}
		g = next
	}
}

// TestRosterChurnRejectsBadInput: a roster change to an invalid roster — a
// join with λ = 0, λ = +Inf or NaN, or ω = +Inf, or the last seller
// leaving — is refused by the new game's Precompute, which leaves that game
// without a snapshot and the game it was built from as it was.
func TestRosterChurnRejectsBadInput(t *testing.T) {
	g := paperTestGame(t, 3, 1)
	if err := g.Precompute(); err != nil {
		t.Fatalf("precompute: %v", err)
	}
	before := mustSolve(t, g, "the roster")
	joins := []struct {
		name           string
		lambda, weight float64
	}{
		{"λ=0", 0, 1},
		{"λ=+Inf", math.Inf(1), 1},
		{"λ=NaN", math.NaN(), 1},
		{"ω=+Inf", 1, math.Inf(1)},
	}
	for _, j := range joins {
		next, err := nextRoster(g, true, 0, j.lambda, j.weight)
		if err == nil {
			t.Errorf("join with %s accepted", j.name)
		}
		if next.Precomputed() {
			t.Errorf("join with %s left a snapshot on the refused game", j.name)
		}
	}
	if g.M() != 3 || !g.Precomputed() || !sameProfile(mustSolve(t, g, "the roster"), before) {
		t.Fatalf("refused joins disturbed the roster: m=%d, precomputed=%v", g.M(), g.Precomputed())
	}
	last := g
	for last.M() > 1 {
		next, err := nextRoster(last, false, 0, 0, 0)
		if err != nil {
			t.Fatalf("leave at m=%d: %v", last.M(), err)
		}
		last = next
	}
	if _, err := nextRoster(last, false, 0, 0, 0); err == nil {
		t.Error("removing the last seller accepted")
	}
	if last.M() != 1 || !last.Precomputed() {
		t.Fatalf("the refused leave disturbed the one-seller roster: m=%d, precomputed=%v", last.M(), last.Precomputed())
	}
}
