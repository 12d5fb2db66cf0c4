package market

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"share/internal/core"
	"share/internal/dataset"
	"share/internal/solve"
	"share/internal/stat"
	"share/internal/translog"
)

// joiner builds a fresh seller whose dataset matches the CCPP feature shape
// used by testMarket.
func joiner(t *testing.T, id string, lambda float64, seed int64) *Seller {
	t.Helper()
	return &Seller{ID: id, Lambda: lambda, Data: dataset.SyntheticCCPP(60, stat.NewRand(seed))}
}

// TestChurnedMarketMatchesFreshMarket: a churned market serves exactly what
// a market built afresh over its roster and weights would. After a join and
// a leave, a round must agree bit for bit with one from a market freshly
// constructed over the identical roster and weights. Then generated scripts
// of joins at random λ (live at the mean weight, or replayed at a random
// one) and leaves at random indices run on rosters of 2–12 sellers; after
// every step each backend bound to the committed game must solve bit for
// bit like a Precompute of a game built from copies of the roster's λ and
// weights (the general backend, a thousand times slower, at each script's
// last step). Churn once adjusted the cached sums by one seller's terms, which
// left them a few bits off a fresh build, so a market restored from a
// snapshot served different prices than the live one.
func TestChurnedMarketMatchesFreshMarket(t *testing.T) {
	mkt, buyer := testMarket(t, 6, nil, 42)

	add := joiner(t, "J1", 0.45, 99)
	w, err := mkt.AddSeller(add)
	if err != nil {
		t.Fatalf("AddSeller: %v", err)
	}
	if !(w > 0) {
		t.Fatalf("admission weight %g", w)
	}
	if err := mkt.RemoveSeller("S2"); err != nil {
		t.Fatalf("RemoveSeller: %v", err)
	}
	if mkt.Epoch() != 2 {
		t.Fatalf("epoch after join+leave: %d, want 2", mkt.Epoch())
	}
	if mkt.M() != 6 {
		t.Fatalf("roster size after join+leave: %d, want 6", mkt.M())
	}

	tx, err := mkt.RunRound(buyer)
	if err != nil {
		t.Fatalf("churned round: %v", err)
	}
	if tx.Epoch != 2 {
		t.Fatalf("transaction stamped epoch %d, want 2", tx.Epoch)
	}

	// Rebuild from scratch over the post-churn roster. Fresh markets start
	// uniform, so carry the churned market's weights across explicitly.
	fresh, err := New(mkt.sellers, Config{
		Cost:    translog.PaperDefaults(),
		TestSet: mkt.testSet,
		Seed:    42,
	})
	if err != nil {
		t.Fatalf("fresh market over churned roster: %v", err)
	}
	if err := fresh.SetWeights(mkt.Weights()); err != nil {
		t.Fatalf("SetWeights: %v", err)
	}
	want, err := fresh.RunRound(buyer)
	if err != nil {
		t.Fatalf("fresh round: %v", err)
	}
	if d := diffPrices(tx.Profile, want.Profile); d != "" {
		t.Errorf("round: churned vs fresh market: %s", d)
	}

	for seed := int64(1); seed <= 20; seed++ {
		rng := stat.NewRand(seed)
		mkt, buyer := testMarket(t, 2+rng.Intn(11), nil, seed)
		w := make([]float64, mkt.M())
		for i := range w {
			w[i] = 0.2 + 1.8*rng.Float64()
		}
		if err := mkt.SetWeights(w); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 12; step++ {
			var err error
			if n := mkt.M(); n > 2 && (n == 12 || rng.Intn(2) == 0) {
				err = mkt.RemoveSeller(mkt.sellers[rng.Intn(n)].ID)
			} else {
				s := joiner(t, fmt.Sprintf("J%d", step), stat.UniformOpen(rng, 0, 1), 100*seed+int64(step))
				if rng.Intn(2) == 0 {
					_, err = mkt.AddSeller(s)
				} else {
					err = mkt.ApplyJoin(s, 0.2+1.8*rng.Float64(), mkt.Epoch()+1)
				}
			}
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			backends := []string{"analytic", "meanfield"}
			if step == 11 {
				backends = solve.Names()
			}
			assertServesFreshGame(t, mkt, buyer, backends, fmt.Sprintf("seed %d step %d (m=%d)", seed, step, mkt.M()))
		}
	}
}

// assertServesFreshGame solves buyer with each named backend bound to the
// market's committed game and with a Precompute of a game built from copies
// of the roster's λ and the market's weights, and requires PM, PD and τ to
// agree bit for bit.
func assertServesFreshGame(t *testing.T, mkt *Market, buyer core.Buyer, backends []string, what string) {
	t.Helper()
	lambdas := make([]float64, mkt.M())
	for i, s := range mkt.sellers {
		lambdas[i] = s.Lambda
	}
	fresh := &core.Game{
		Buyer:   core.PaperBuyer(),
		Broker:  core.Broker{Cost: mkt.cost, Weights: mkt.Weights()},
		Sellers: core.Sellers{Lambda: lambdas},
	}
	ctx := context.Background()
	for _, name := range backends {
		b, err := solve.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := b.Precompute(fresh)
		if err != nil {
			t.Fatalf("%s: %s: Precompute of the fresh game: %v", what, name, err)
		}
		var want, got core.Profile
		if err := ref.SolveFor(ctx, buyer, &want); err != nil {
			t.Fatalf("%s: %s: fresh SolveFor: %v", what, name, err)
		}
		if err := b.Bind(mkt.Prototype().Game()).SolveFor(ctx, buyer, &got); err != nil {
			t.Fatalf("%s: %s: committed SolveFor: %v", what, name, err)
		}
		if d := diffPrices(&got, &want); d != "" {
			t.Errorf("%s: %s: churned vs fresh game: %s", what, name, d)
		}
	}
}

// diffPrices reports the first of PM, PD and τ where got and want differ
// bit for bit, or "" when they are identical.
func diffPrices(got, want *core.Profile) string {
	switch {
	case math.Float64bits(got.PM) != math.Float64bits(want.PM):
		return fmt.Sprintf("PM %v, want %v", got.PM, want.PM)
	case math.Float64bits(got.PD) != math.Float64bits(want.PD):
		return fmt.Sprintf("PD %v, want %v", got.PD, want.PD)
	case len(got.Tau) != len(want.Tau):
		return fmt.Sprintf("%d fidelities, want %d", len(got.Tau), len(want.Tau))
	}
	for i := range got.Tau {
		if math.Float64bits(got.Tau[i]) != math.Float64bits(want.Tau[i]) {
			return fmt.Sprintf("Tau[%d] %v, want %v", i, got.Tau[i], want.Tau[i])
		}
	}
	return ""
}

// TestRosterValidation pins every churn rejection onto *RosterError with the
// market left untouched. An infinite λ or weight passes the admission
// checks and is refused by the precompute of the next roster's game.
func TestRosterValidation(t *testing.T) {
	mkt, _ := testMarket(t, 3, nil, 7)
	short, err := dataset.FromRows([][]float64{{1, 2}}, []float64{3})
	if err != nil {
		t.Fatal(err)
	}
	short.Features, short.Target = []string{"a", "b"}, "y"
	wide, err := dataset.FromRows([][]float64{{1, 2, 3, 4, 5, 6}}, []float64{3})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		op   func() error
	}{
		{"nil seller", func() error { _, err := mkt.AddSeller(nil); return err }},
		{"bad lambda", func() error { _, err := mkt.AddSeller(&Seller{ID: "x", Lambda: -1, Data: short}); return err }},
		{"no data", func() error { _, err := mkt.AddSeller(&Seller{ID: "x", Lambda: 0.5}); return err }},
		{"feature mismatch", func() error { _, err := mkt.AddSeller(&Seller{ID: "x", Lambda: 0.5, Data: short}); return err }},
		{"wider than the test set", func() error { _, err := mkt.AddSeller(&Seller{ID: "x", Lambda: 0.5, Data: wide}); return err }},
		{"replayed join without data", func() error { return mkt.ApplyJoin(&Seller{ID: "x", Lambda: 0.5, Data: &dataset.Dataset{}}, 1.0, 1) }},
		{"replayed join of the wrong width", func() error { return mkt.ApplyJoin(&Seller{ID: "x", Lambda: 0.5, Data: short}, 1.0, 1) }},
		{"duplicate id", func() error { _, err := mkt.AddSeller(joiner(t, "S1", 0.5, 1)); return err }},
		{"unknown leave", func() error { return mkt.RemoveSeller("nobody") }},
		{"stale join epoch", func() error { return mkt.ApplyJoin(joiner(t, "x", 0.5, 1), 1.0, 5) }},
		{"stale leave epoch", func() error { return mkt.ApplyLeave("S1", 0) }},
		{"live join with an infinite lambda", func() error { _, err := mkt.AddSeller(joiner(t, "x", math.Inf(1), 1)); return err }},
		{"replayed join with an infinite weight", func() error { return mkt.ApplyJoin(joiner(t, "x", 0.5, 1), math.Inf(1), 1) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.op()
			var re *RosterError
			if !errors.As(err, &re) {
				t.Fatalf("want *RosterError, got %v", err)
			}
			if mkt.M() != 3 || mkt.Epoch() != 0 {
				t.Fatalf("rejected churn mutated the market: m=%d epoch=%d", mkt.M(), mkt.Epoch())
			}
		})
	}

	// The last seller cannot leave.
	solo, _ := testMarket(t, 1, nil, 7)
	err = solo.RemoveSeller("S0")
	var re *RosterError
	if !errors.As(err, &re) {
		t.Fatalf("removing the last seller: want *RosterError, got %v", err)
	}
}

// TestReplayedChurnReproducesLiveMarket drives the WAL replay contract: a
// second market applying the recorded join (with its recorded weight) and
// leave must land on the same roster, weights and epoch as the live one.
func TestReplayedChurnReproducesLiveMarket(t *testing.T) {
	live, _ := testMarket(t, 4, nil, 11)
	twin, _ := testMarket(t, 4, nil, 11)

	add := joiner(t, "J1", 0.8, 5)
	w, err := live.AddSeller(add)
	if err != nil {
		t.Fatalf("AddSeller: %v", err)
	}
	if err := live.RemoveSeller("S0"); err != nil {
		t.Fatalf("RemoveSeller: %v", err)
	}

	if err := twin.ApplyJoin(add, w, 1); err != nil {
		t.Fatalf("ApplyJoin: %v", err)
	}
	if err := twin.ApplyLeave("S0", 2); err != nil {
		t.Fatalf("ApplyLeave: %v", err)
	}

	if twin.Epoch() != live.Epoch() {
		t.Fatalf("epochs diverge: replayed %d vs live %d", twin.Epoch(), live.Epoch())
	}
	lw, tw := live.Weights(), twin.Weights()
	if len(lw) != len(tw) {
		t.Fatalf("roster sizes diverge: %d vs %d", len(tw), len(lw))
	}
	for i := range lw {
		if lw[i] != tw[i] {
			t.Errorf("weight %d: replayed %g vs live %g", i, tw[i], lw[i])
		}
		if live.sellers[i].ID != twin.sellers[i].ID {
			t.Errorf("seller %d: replayed %q vs live %q", i, twin.sellers[i].ID, live.sellers[i].ID)
		}
	}
}

// TestSnapshotCarriesEpoch round-trips the roster epoch through Snapshot /
// Restore and pins the RosterError mapping of roster mismatches.
func TestSnapshotCarriesEpoch(t *testing.T) {
	mkt, _ := testMarket(t, 3, nil, 13)
	if _, err := mkt.AddSeller(joiner(t, "J1", 0.6, 3)); err != nil {
		t.Fatal(err)
	}
	snap := mkt.Snapshot()
	if snap.Epoch != 1 {
		t.Fatalf("snapshot epoch %d, want 1", snap.Epoch)
	}

	twin, err := New(mkt.sellers, Config{Cost: translog.PaperDefaults(), TestSet: mkt.testSet, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if twin.Epoch() != 1 {
		t.Fatalf("restored epoch %d, want 1", twin.Epoch())
	}

	// A market over a different roster must refuse the snapshot with a
	// typed roster error.
	other, _ := testMarket(t, 3, nil, 13)
	var re *RosterError
	if err := other.Restore(snap); !errors.As(err, &re) {
		t.Fatalf("mismatched restore: want *RosterError, got %v", err)
	}
}

// TestWeightDecayPullsTowardUniform checks the decay blend against the
// no-decay trajectory: after one identical round, the decayed weights are
// exactly (1−d)·ω′ + d/m of the plain ones, and a zero decay reproduces the
// plain run bit for bit.
func TestWeightDecayPullsTowardUniform(t *testing.T) {
	update := func(d float64) *WeightUpdate {
		return &WeightUpdate{Retain: 0.2, Permutations: 10, Decay: d}
	}
	plain, buyer := testMarket(t, 3, update(0), 21)
	decayed, _ := testMarket(t, 3, update(0.5), 21)

	txP, err := plain.RunRound(buyer)
	if err != nil {
		t.Fatal(err)
	}
	txD, err := decayed.RunRound(buyer)
	if err != nil {
		t.Fatal(err)
	}
	uniform := 1.0 / 3
	for i := range txP.Weights {
		want := 0.5*txP.Weights[i] + 0.5*uniform
		if d := math.Abs(txD.Weights[i] - want); d > 1e-15 {
			t.Errorf("weight %d: decayed %g, want %g", i, txD.Weights[i], want)
		}
	}

	again, _ := testMarket(t, 3, update(0), 21)
	txA, err := again.RunRound(buyer)
	if err != nil {
		t.Fatal(err)
	}
	for i := range txP.Weights {
		if txP.Weights[i] != txA.Weights[i] {
			t.Fatalf("zero decay is not bit-stable: weight %d %g vs %g", i, txP.Weights[i], txA.Weights[i])
		}
	}

	// Out-of-range decay factors are rejected at construction.
	rng := stat.NewRand(1)
	data := dataset.SyntheticCCPP(50, rng)
	test := dataset.SyntheticCCPP(20, rng)
	sellers := []*Seller{{ID: "a", Lambda: 0.5, Data: data}}
	for _, d := range []float64{-0.1, 1, 1.5} {
		if _, err := New(sellers, Config{TestSet: test, Update: &WeightUpdate{Decay: d}}); err == nil {
			t.Errorf("decay %g accepted", d)
		}
	}
}
