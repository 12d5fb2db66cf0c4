package market

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"share/internal/budget"
	"share/internal/core"
	"share/internal/dataset"
	"share/internal/stat"
	"share/internal/translog"
)

// budgetMarket builds a testMarket-shaped market wired to a fresh ledger
// with per-seller budget eps (basic composition) and returns the ledger too.
func budgetMarket(t *testing.T, m int, eps float64, update *WeightUpdate, seed int64) (*Market, *budget.Ledger, core.Buyer) {
	t.Helper()
	rng := stat.NewRand(seed)
	full := dataset.SyntheticCCPP(m*60+500, rng)
	train, test := full.Split(m * 60)
	chunks, err := dataset.PartitionEqual(train, m)
	if err != nil {
		t.Fatalf("PartitionEqual: %v", err)
	}
	sellers := make([]*Seller, m)
	for i := range sellers {
		sellers[i] = &Seller{
			ID:     fmt.Sprintf("S%d", i),
			Lambda: stat.UniformOpen(rng, 0, 1),
			Data:   chunks[i],
		}
	}
	led, err := budget.NewLedger(budget.Config{Epsilon: eps})
	if err != nil {
		t.Fatalf("NewLedger: %v", err)
	}
	mkt, err := New(sellers, Config{
		Cost:    translog.PaperDefaults(),
		TestSet: test,
		Update:  update,
		Seed:    seed,
		Budget:  led,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	buyer := core.PaperBuyer()
	buyer.N = float64(m * 30)
	return mkt, led, buyer
}

// TestBudgetDisabledRoundIsBitIdentical: a market with a generous budget
// produces the same numeric round as a budget-free market on the same seed —
// the budget check and charge draw no randomness, so enabling budgets only
// adds the spent vector.
func TestBudgetDisabledRoundIsBitIdentical(t *testing.T) {
	plain, buyer := testMarket(t, 6, &WeightUpdate{Retain: 0.2, Permutations: 8}, 21)
	budgeted, _, _ := budgetMarket(t, 6, 1e12, &WeightUpdate{Retain: 0.2, Permutations: 8}, 21)

	txP, err := plain.RunRound(buyer)
	if err != nil {
		t.Fatalf("plain RunRound: %v", err)
	}
	txB, err := budgeted.RunRound(buyer)
	if err != nil {
		t.Fatalf("budgeted RunRound: %v", err)
	}
	same := func(name string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s length %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s[%d]: %v != %v (budget path diverged)", name, i, a[i], b[i])
			}
		}
	}
	same("epsilons", txP.Epsilons, txB.Epsilons)
	same("compensations", txP.Compensations, txB.Compensations)
	same("shapley", txP.Shapley, txB.Shapley)
	same("weights", txP.Weights, txB.Weights)
	for i := range txP.Pieces {
		if txP.Pieces[i] != txB.Pieces[i] {
			t.Fatalf("pieces[%d]: %d != %d", i, txP.Pieces[i], txB.Pieces[i])
		}
	}
	if txP.Payment != txB.Payment {
		t.Fatalf("payment %v != %v", txP.Payment, txB.Payment)
	}
	if txP.Discounts != nil || txP.BudgetSpent != nil {
		t.Fatal("budget-free market recorded budget fields")
	}
	if txB.BudgetSpent == nil {
		t.Fatal("budgeted market did not record spent vector")
	}
}

// TestBudgetExhaustionExcludesSellerFromRound: a round whose projected charge
// would cross a seller's budget is refused with the typed error before any
// privacy is spent, the market state is untouched, and a top-up unblocks it.
func TestBudgetExhaustionExcludesSellerFromRound(t *testing.T) {
	// Probe one budget-free round to learn the per-seller ε this buyer
	// induces (no weight update → the profile repeats every round).
	probe, buyer := testMarket(t, 5, nil, 22)
	ptx, err := probe.RunRound(buyer)
	if err != nil {
		t.Fatalf("probe RunRound: %v", err)
	}
	maxEps := 0.0
	for i, e := range ptx.Epsilons {
		if ptx.Pieces[i] > 0 && e > maxEps {
			maxEps = e
		}
	}
	if maxEps <= 0 {
		t.Fatal("probe round charged nobody")
	}

	// Budget covers one round but not two for the max-ε seller.
	mkt, led, _ := budgetMarket(t, 5, 1.5*maxEps, nil, 22)
	tx, err := mkt.RunRound(buyer)
	if err != nil {
		t.Fatalf("round 1: %v", err)
	}
	for i, s := range mkt.sellers {
		want := 0.0
		if tx.Pieces[i] > 0 {
			want = tx.Epsilons[i]
		}
		if got := tx.BudgetSpent[i]; got != want {
			t.Fatalf("spent[%s] = %v, want %v", s.ID, got, want)
		}
		if led.Spent(s.ID) != want {
			t.Fatalf("ledger spent[%s] = %v, want %v", s.ID, led.Spent(s.ID), want)
		}
	}

	_, err = mkt.RunRound(buyer)
	var ee *budget.ExhaustedError
	if !errors.As(err, &ee) {
		t.Fatalf("round 2 error = %v, want *budget.ExhaustedError", err)
	}
	if ee.SellerID == "" || ee.Budget != 1.5*maxEps || ee.Requested <= 0 {
		t.Fatalf("exhausted error fields: %+v", ee)
	}
	// Refusal left the market untouched: no ledger entry, no spend.
	if len(mkt.Ledger()) != 1 {
		t.Fatalf("refused round appended to ledger: %d entries", len(mkt.Ledger()))
	}
	if led.Spent(ee.SellerID) != ee.Spent {
		t.Fatalf("refused round changed spend: %v vs %v", led.Spent(ee.SellerID), ee.Spent)
	}

	// Topping every seller up re-admits the round, numbered contiguously.
	for _, s := range mkt.sellers {
		if _, err := led.TopUp(s.ID, 10*maxEps); err != nil {
			t.Fatalf("TopUp(%s): %v", s.ID, err)
		}
	}
	tx2, err := mkt.RunRound(buyer)
	if err != nil {
		t.Fatalf("round 2 after top-up: %v", err)
	}
	if tx2.Round != 2 {
		t.Fatalf("round number = %d, want 2", tx2.Round)
	}
	for i := range mkt.sellers {
		if tx2.Pieces[i] > 0 && tx2.BudgetSpent[i] != 2*tx.Epsilons[i] {
			t.Fatalf("cumulative spent[%d] = %v, want %v", i, tx2.BudgetSpent[i], 2*tx.Epsilons[i])
		}
	}
}

// dupMarket builds a 3-seller market where sellers 0 and 1 hold the same
// dataset and seller 2 holds structurally different data, with near-zero
// privacy sensitivity so chunks reach valuation essentially clean.
func dupMarket(t *testing.T, disc *DiscountConfig, seed int64) (*Market, core.Buyer) {
	t.Helper()
	rng := stat.NewRand(seed)
	// All sellers obey the same response map y = 2x₀ − x₁ (so everyone's
	// marginal contribution is positive), but the novel seller's feature
	// covariance differs — low redundancy against the duplicates.
	mkRows := func(n int, dup bool) *dataset.Dataset {
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := range x {
			a, b := rng.NormFloat64(), rng.NormFloat64()
			if !dup {
				a, b = 3*a, 0.2*b
			}
			x[i] = []float64{a, b}
			y[i] = 2*a - b + 0.05*rng.NormFloat64()
		}
		d, err := dataset.FromRows(x, y)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	shared := mkRows(120, true)
	sellers := []*Seller{
		{ID: "dupA", Lambda: 1e-9, Data: shared},
		{ID: "dupB", Lambda: 1e-9, Data: shared},
		{ID: "novel", Lambda: 1e-9, Data: mkRows(120, false)},
	}
	mkt, err := New(sellers, Config{
		Cost:     translog.PaperDefaults(),
		TestSet:  mkRows(80, true),
		Update:   &WeightUpdate{Retain: 0.2, Permutations: 12},
		Seed:     seed,
		Discount: disc,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	buyer := core.PaperBuyer()
	buyer.N = 90
	return mkt, buyer
}

// TestSimilarityDiscountShrinksDuplicatePayouts: with discounting on, the
// two mutually redundant sellers get a sub-unit factor applied to their
// Shapley payouts (sv_disc = d·sv exactly), the novel seller keeps factor 1,
// and the freed weight mass flows to the novel seller.
func TestSimilarityDiscountShrinksDuplicatePayouts(t *testing.T) {
	plain, buyer := dupMarket(t, nil, 23)
	disc, _ := dupMarket(t, &DiscountConfig{Factor: 0.8, Threshold: 0.9}, 23)

	txP, err := plain.RunRound(buyer)
	if err != nil {
		t.Fatalf("plain RunRound: %v", err)
	}
	txD, err := disc.RunRound(buyer)
	if err != nil {
		t.Fatalf("discounted RunRound: %v", err)
	}
	if txP.Discounts != nil {
		t.Fatal("discount-free market recorded factors")
	}
	if len(txD.Discounts) != 3 {
		t.Fatalf("discount factors = %v", txD.Discounts)
	}
	if txD.Discounts[0] >= 1 || txD.Discounts[1] >= 1 {
		t.Fatalf("duplicate sellers not discounted: %v", txD.Discounts)
	}
	if txD.Discounts[2] != 1 {
		t.Fatalf("novel seller discounted: %v", txD.Discounts)
	}
	// The recorded factor is exactly what multiplied the positive payouts.
	for i := range txP.Shapley {
		if txP.Shapley[i] <= 0 {
			continue
		}
		if got, want := txD.Shapley[i], txP.Shapley[i]*txD.Discounts[i]; got != want {
			t.Fatalf("shapley[%d] = %v, want %v·%v", i, got, txP.Shapley[i], txD.Discounts[i])
		}
	}
	if txD.Weights[2] <= txP.Weights[2] {
		t.Fatalf("novel seller weight %v did not rise above undiscounted %v", txD.Weights[2], txP.Weights[2])
	}
	var sum float64
	for _, w := range txD.Weights {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("discounted weights sum = %v", sum)
	}
}

// TestDiscountConfigValidation pins the accepted parameter ranges and the
// Factor == 0 "disabled" convention.
func TestDiscountConfigValidation(t *testing.T) {
	rng := stat.NewRand(24)
	data := dataset.SyntheticCCPP(60, rng)
	test := dataset.SyntheticCCPP(30, rng)
	sellers := []*Seller{{ID: "a", Lambda: 0.5, Data: data}}
	try := func(d *DiscountConfig) error {
		_, err := New(sellers, Config{Cost: translog.PaperDefaults(), TestSet: test, Discount: d})
		return err
	}
	for _, d := range []*DiscountConfig{
		{Factor: -0.1}, {Factor: 1.5}, {Factor: math.NaN()},
		{Factor: 0.5, Threshold: 1}, {Factor: 0.5, Threshold: -0.1}, {Factor: 0.5, Threshold: math.NaN()},
	} {
		if try(d) == nil {
			t.Errorf("accepted %+v", d)
		}
	}
	if err := try(&DiscountConfig{}); err != nil {
		t.Errorf("Factor 0 (disabled) rejected: %v", err)
	}
	if err := try(&DiscountConfig{Factor: 1, Threshold: 0.99}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}

	// The factor curve itself: identity below threshold, linear ramp above,
	// floored at zero.
	d := DiscountConfig{Factor: 0.8, Threshold: 0.5}
	if got := d.factor(0.4); got != 1 {
		t.Errorf("factor(0.4) = %v", got)
	}
	if got := d.factor(0.75); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("factor(0.75) = %v, want 0.6", got)
	}
	if got := d.factor(1); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("factor(1) = %v, want 0.2", got)
	}
	full := DiscountConfig{Factor: 1, Threshold: 0}
	if got := full.factor(1); got != 0 {
		t.Errorf("full discount factor(1) = %v", got)
	}
}

// countingMechanism perturbs nothing and counts its applications per
// seller, telling sellers apart by their rows: every seller's data is
// drawn from a stream of its own, so a record's first feature and target
// name the seller whose row it copies. It keeps the ε each seller's
// records were perturbed under, and flags a record that no seller holds
// and a seller perturbed under two ε in one round.
type countingMechanism struct {
	owner  map[[2]uint64]int
	counts []int
	eps    []float64
	bad    string
}

func (c *countingMechanism) Perturb(_ *rand.Rand, record []float64, eps float64) {
	i, ok := c.owner[[2]uint64{math.Float64bits(record[0]), math.Float64bits(record[len(record)-1])}]
	switch {
	case !ok:
		c.bad = fmt.Sprintf("perturbed a record no seller holds: %v", record)
	case c.counts[i] > 0 && eps != c.eps[i]:
		c.bad = fmt.Sprintf("seller %d perturbed under ε=%v and ε=%v", i, c.eps[i], eps)
	default:
		c.counts[i]++
		c.eps[i] = eps
	}
}

// TestLiveChargesMatchPieces: the live round charges the privacy ledger
// from the transaction's Pieces, as replay does, so Pieces must be the LDP
// applications the round ran. Over generated rosters (a seller with fewer
// rows than her allocation is sampled with replacement), demands and both
// composition rules, a counting mechanism set through Config.Mechanism must
// see exactly Pieces[i] applications per seller, and the ledger's spend
// must equal, bit for bit, a shadow ledger charged from Pieces alone.
func TestLiveChargesMatchPieces(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := stat.NewRand(seed)
		m := 2 + rng.Intn(6)
		sellers := make([]*Seller, m)
		mech := &countingMechanism{owner: map[[2]uint64]int{}, counts: make([]int, m), eps: make([]float64, m)}
		for i := range sellers {
			rows := 20 + rng.Intn(120)
			if i == 0 {
				rows = 3 + rng.Intn(5) // fewer rows than any allocation she gets
			}
			d := dataset.SyntheticCCPP(rows, stat.NewRand(seed*100+int64(i)))
			for r := 0; r < d.Len(); r++ {
				mech.owner[[2]uint64{math.Float64bits(d.Row(r)[0]), math.Float64bits(d.Y[r])}] = i
			}
			sellers[i] = &Seller{ID: fmt.Sprintf("S%d", i), Lambda: stat.UniformOpen(rng, 0, 1), Data: d}
		}
		cfg := budget.Config{Epsilon: 1e18}
		if seed%2 == 0 {
			cfg.Composition = budget.Advanced
		}
		led, err := budget.NewLedger(cfg)
		if err != nil {
			t.Fatal(err)
		}
		shadow, err := budget.NewLedger(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mkt, err := New(sellers, Config{
			Cost:      translog.PaperDefaults(),
			Mechanism: mech,
			TestSet:   dataset.SyntheticCCPP(200, stat.NewRand(seed+7)),
			Update:    &WeightUpdate{Retain: 0.2, Permutations: 4},
			Seed:      seed,
			Budget:    led,
		})
		if err != nil {
			t.Fatal(err)
		}
		for round := 1; round <= 4; round++ {
			buyer := core.PaperBuyer()
			buyer.N = float64(10 + rng.Intn(40*m))
			buyer.V = 0.5 + 0.45*rng.Float64()
			clear(mech.counts)
			tx, err := mkt.RunRound(buyer)
			if err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			if mech.bad != "" {
				t.Fatalf("seed %d round %d: %s", seed, round, mech.bad)
			}
			var ids []string
			var eps []float64
			for i, s := range sellers {
				if mech.counts[i] != tx.Pieces[i] {
					t.Fatalf("seed %d round %d: seller %s had %d LDP applications, Pieces says %d", seed, round, s.ID, mech.counts[i], tx.Pieces[i])
				}
				if mech.counts[i] > 0 && mech.eps[i] != tx.Epsilons[i] {
					t.Fatalf("seed %d round %d: seller %s perturbed under ε=%v, the transaction records %v", seed, round, s.ID, mech.eps[i], tx.Epsilons[i])
				}
				if tx.Pieces[i] > 0 && tx.Epsilons[i] > 0 {
					ids, eps = append(ids, s.ID), append(eps, tx.Epsilons[i])
				}
			}
			shadow.Charge(ids, eps)
			for i, s := range sellers {
				got, want := led.Spent(s.ID), shadow.Spent(s.ID)
				if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(tx.BudgetSpent[i]) != math.Float64bits(want) {
					t.Fatalf("seed %d round %d: seller %s spent ε=%v (transaction: %v), the shadow ledger charged from Pieces %v",
						seed, round, s.ID, got, tx.BudgetSpent[i], want)
				}
			}
		}
	}
}
