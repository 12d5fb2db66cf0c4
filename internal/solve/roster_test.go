package solve

import (
	"context"
	"slices"
	"testing"

	"share/internal/core"
	"share/internal/stat"
)

// reprepare re-prepares p for the roster after one change, the way a
// market does: it builds the next roster's game from p's λ and ω — a join
// appends to capacity-capped slices, so the append copies; a leave deletes
// seller idx from copies — precomputes it from scratch and binds p's
// backend to it. p and its game are left as they were.
func reprepare(tb testing.TB, p Prepared, join bool, idx int, lambda, weight float64) Prepared {
	tb.Helper()
	g := p.Game()
	n := g.M()
	next := &core.Game{Buyer: g.Buyer, Broker: core.Broker{Cost: g.Broker.Cost}}
	if join {
		next.Sellers.Lambda = append(g.Sellers.Lambda[:n:n], lambda)
		next.Broker.Weights = append(g.Broker.Weights[:n:n], weight)
	} else {
		next.Sellers.Lambda = slices.Delete(slices.Clone(g.Sellers.Lambda), idx, idx+1)
		next.Broker.Weights = slices.Delete(slices.Clone(g.Broker.Weights), idx, idx+1)
	}
	if err := next.Precompute(); err != nil {
		tb.Fatalf("precomputing the roster after (join=%v idx=%d): %v", join, idx, err)
	}
	return p.Backend().Bind(next)
}

// solvePaperBuyer solves the paper's buyer on p through SolveFor.
func solvePaperBuyer(tb testing.TB, p Prepared) *core.Profile {
	tb.Helper()
	prof := new(core.Profile)
	if err := p.SolveFor(context.Background(), core.PaperBuyer(), prof); err != nil {
		tb.Fatalf("m=%d %s: SolveFor: %v", p.Game().M(), p.Backend().Name(), err)
	}
	return prof
}

// churnSequence drives a fixed join/leave script from p and returns the
// last roster's Prepared. The script exercises both directions and a leave
// at index 0. After every step the Prepared it came from must still solve
// bit for bit as before it: the next game shares no state with it.
func churnSequence(t *testing.T, p Prepared) Prepared {
	t.Helper()
	step := func(join bool, idx int, lambda, weight float64) {
		t.Helper()
		before := solvePaperBuyer(t, p)
		next := reprepare(t, p, join, idx, lambda, weight)
		if d := diffProfile(solvePaperBuyer(t, p), before); d != "" {
			t.Fatalf("(join=%v idx=%d) disturbed the previous roster's Prepared: %s", join, idx, d)
		}
		p = next
	}
	step(true, 0, 0.6, 1.3)
	step(false, 0, 0, 0)
	step(true, 0, 1.1, 0.7)
	step(false, p.Game().M()-2, 0, 0)
	return p
}

// alternatingChurn applies steps roster changes to p, prepared with m
// sellers, alternating joins (a spread of λ, weight 1/m) and leaves (a
// stride of 13 through the roster), so the roster stays within one seller
// of m, and returns the last roster's Prepared.
func alternatingChurn(tb testing.TB, p Prepared, m, steps int) Prepared {
	for k := 0; k < steps; k++ {
		if k%2 == 0 {
			p = reprepare(tb, p, true, 0, 0.2+0.6*float64(k%7)/7, 1/float64(m))
		} else {
			p = reprepare(tb, p, false, (k*13)%p.Game().M(), 0, 0)
		}
	}
	return p
}

// TestReprepareMatchesFreshPrecompute holds every backend's re-preparation
// after roster changes to a from-scratch Precompute over copies of the
// post-churn roster: PM, PD, τ and the rest of the profile must agree bit
// for bit, and the roster the script started from must still solve as it
// did. A roster change precomputes the next game whole, so nothing may
// carry over from one roster to the next; the long scripts at m = 100 and
// m = 1000 check that over hundreds of changes. The general backend runs
// only the short script: one general solve at m = 1000 costs seconds.
func TestReprepareMatchesFreshPrecompute(t *testing.T) {
	scripts := []struct {
		name  string
		m     int
		seed  int64
		long  bool
		churn func(*testing.T, Prepared) Prepared
	}{
		{"four-steps-m12", 12, 31, false, churnSequence},
		{"alternating-m100", 100, 107, true, func(t *testing.T, p Prepared) Prepared { return alternatingChurn(t, p, 100, 200) }},
		{"alternating-m1000", 1000, 1007, true, func(t *testing.T, p Prepared) Prepared { return alternatingChurn(t, p, 1000, 100) }},
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			b, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, sc := range scripts {
				if sc.long && name == "general" {
					continue
				}
				t.Run(sc.name, func(t *testing.T) {
					start, err := b.Precompute(core.PaperGame(sc.m, stat.NewRand(sc.seed)))
					if err != nil {
						t.Fatalf("precompute: %v", err)
					}
					before := solvePaperBuyer(t, start)
					churned := sc.churn(t, start)

					g := churned.Game()
					fresh, err := b.Precompute(&core.Game{
						Buyer:   g.Buyer,
						Broker:  core.Broker{Cost: g.Broker.Cost, Weights: slices.Clone(g.Broker.Weights)},
						Sellers: core.Sellers{Lambda: slices.Clone(g.Sellers.Lambda)},
					})
					if err != nil {
						t.Fatalf("fresh precompute over churned roster: %v", err)
					}
					got, want := solvePaperBuyer(t, churned), solvePaperBuyer(t, fresh)
					if len(got.Tau) != len(want.Tau) {
						t.Fatalf("roster size: churned %d vs fresh %d", len(got.Tau), len(want.Tau))
					}
					if d := diffProfile(got, want); d != "" {
						t.Errorf("churned vs fresh Precompute: %s", d)
					}
					if d := diffProfile(solvePaperBuyer(t, start), before); d != "" {
						t.Errorf("churn disturbed the starting roster's Prepared: %s", d)
					}
				})
			}
		})
	}
}
