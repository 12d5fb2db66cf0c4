package market

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"share/internal/core"
	"share/internal/dataset"
	"share/internal/stat"
	"share/internal/translog"
)

// testMarket builds a small CCPP-backed market with m sellers.
func testMarket(t *testing.T, m int, update *WeightUpdate, seed int64) (*Market, core.Buyer) {
	t.Helper()
	return testMarketWith(t, m, seed, Config{Update: update})
}

// testMarketWith is testMarket with cfg's Cost, TestSet and Seed filled in.
func testMarketWith(t *testing.T, m int, seed int64, cfg Config) (*Market, core.Buyer) {
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
	cfg.Cost, cfg.TestSet, cfg.Seed = translog.PaperDefaults(), test, seed
	mkt, err := New(sellers, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	buyer := core.PaperBuyer()
	buyer.N = float64(m * 30)
	return mkt, buyer
}

func TestNewValidation(t *testing.T) {
	rng := stat.NewRand(1)
	data := dataset.SyntheticCCPP(50, rng)
	test := dataset.SyntheticCCPP(20, rng)
	good := []*Seller{{ID: "a", Lambda: 0.5, Data: data}}
	cases := []struct {
		name    string
		sellers []*Seller
		cfg     Config
	}{
		{"no sellers", nil, Config{TestSet: test}},
		{"nil seller", []*Seller{nil}, Config{TestSet: test}},
		{"bad lambda", []*Seller{{ID: "a", Lambda: 0, Data: data}}, Config{TestSet: test}},
		{"no data", []*Seller{{ID: "a", Lambda: 0.5, Data: &dataset.Dataset{}}}, Config{TestSet: test}},
		{"no test set", good, Config{}},
		{"bad retain", good, Config{TestSet: test, Update: &WeightUpdate{Retain: 1.5}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := New(c.sellers, c.cfg); err == nil {
				t.Errorf("%s accepted", c.name)
			}
		})
	}
	if _, err := New(good, Config{TestSet: test}); err != nil {
		t.Errorf("valid market rejected: %v", err)
	}
}

// TestNewRefusesSellersOfTheWrongWidth: a seller's rows must be exactly as
// wide as the test set products are scored on. Wider rows used to panic the
// first round's scoring; narrower ones were scored against the test set's
// first columns.
func TestNewRefusesSellersOfTheWrongWidth(t *testing.T) {
	rng := stat.NewRand(2)
	test := dataset.SyntheticCCPP(20, rng)
	for _, k := range []int{2, 6} {
		x := make([][]float64, 10)
		y := make([]float64, len(x))
		for i := range x {
			x[i] = make([]float64, k)
			for j := range x[i] {
				x[i][j] = rng.Float64()
			}
			y[i] = rng.Float64()
		}
		data, err := dataset.FromRows(x, y)
		if err != nil {
			t.Fatal(err)
		}
		sellers := []*Seller{{ID: "a", Lambda: 0.5, Data: dataset.SyntheticCCPP(50, rng)}, {ID: "b", Lambda: 0.5, Data: data}}
		_, err = New(sellers, Config{TestSet: test})
		var re *RosterError
		if !errors.As(err, &re) || re.SellerID != "b" {
			t.Errorf("%d-feature seller: err = %v, want a *RosterError naming b", k, err)
		}
	}
}

// TestNewLeavesUpdateConfigUntouched: New must not write defaults into the
// caller's WeightUpdate — a pool hands one to every market it hosts — and
// an unset permutation count must value like the paper's 100.
func TestNewLeavesUpdateConfigUntouched(t *testing.T) {
	unset := &WeightUpdate{Retain: 0.2}
	mkt, buyer := testMarket(t, 4, unset, 15)
	if *unset != (WeightUpdate{Retain: 0.2}) {
		t.Errorf("New rewrote the caller's WeightUpdate to %+v", *unset)
	}
	paper, _ := testMarket(t, 4, &WeightUpdate{Retain: 0.2, Permutations: 100}, 15)
	got, err := mkt.RunRound(buyer)
	if err != nil {
		t.Fatalf("unset permutations: %v", err)
	}
	want, err := paper.RunRound(buyer)
	if err != nil {
		t.Fatalf("100 permutations: %v", err)
	}
	for i := range want.Shapley {
		if math.Float64bits(got.Shapley[i]) != math.Float64bits(want.Shapley[i]) {
			t.Errorf("Shapley[%d] = %v with unset permutations, want %v", i, got.Shapley[i], want.Shapley[i])
		}
	}
}

func TestRunRoundLedgerAndInvariants(t *testing.T) {
	mkt, buyer := testMarket(t, 10, nil, 2)
	tx, err := mkt.RunRound(buyer)
	if err != nil {
		t.Fatalf("RunRound: %v", err)
	}
	if tx.Round != 1 {
		t.Errorf("round = %d", tx.Round)
	}
	if len(mkt.Ledger()) != 1 {
		t.Errorf("ledger length = %d", len(mkt.Ledger()))
	}
	// Pieces sum exactly to N.
	total := 0
	for _, p := range tx.Pieces {
		if p < 0 {
			t.Fatalf("negative piece count %d", p)
		}
		total += p
	}
	if total != int(buyer.N) {
		t.Errorf("Σ pieces = %d, want %v", total, buyer.N)
	}
	// Compensations match p^D·q^D_i and are non-negative.
	for i, c := range tx.Compensations {
		want := tx.Profile.PD * tx.Profile.Chi[i] * tx.Profile.Tau[i]
		if math.Abs(c-want) > 1e-12 {
			t.Errorf("compensation[%d] = %v, want %v", i, c, want)
		}
		if c < 0 {
			t.Errorf("negative compensation %v", c)
		}
	}
	// Payment = p^M·q^M.
	if math.Abs(tx.Payment-tx.Profile.PM*tx.Profile.QM) > 1e-12 {
		t.Errorf("payment = %v, want %v", tx.Payment, tx.Profile.PM*tx.Profile.QM)
	}
	// Budgets follow the fidelity map.
	for i, e := range tx.Epsilons {
		if e < 0 {
			t.Errorf("negative ε[%d] = %v", i, e)
		}
	}
	// The manufactured model was actually scored.
	if len(tx.Metrics.Detail) == 0 {
		t.Error("product metrics look unset")
	}
	// No weight update requested → weights untouched, no Shapley recorded.
	if tx.Shapley != nil {
		t.Error("Shapley recorded without an update rule")
	}
	for _, w := range tx.Weights {
		if math.Abs(w-1.0/10) > 1e-12 {
			t.Errorf("weights changed without update: %v", tx.Weights)
		}
	}
	if tx.ManufacturingCost <= 0 {
		t.Errorf("manufacturing cost = %v", tx.ManufacturingCost)
	}
}

func TestRunRoundWithShapleyUpdatesWeights(t *testing.T) {
	mkt, buyer := testMarket(t, 6, &WeightUpdate{Retain: 0.2, Permutations: 10}, 3)
	before := mkt.Weights()
	tx, err := mkt.RunRound(buyer)
	if err != nil {
		t.Fatalf("RunRound: %v", err)
	}
	if tx.Shapley == nil {
		t.Fatal("no Shapley values recorded")
	}
	after := mkt.Weights()
	changed := false
	var sum float64
	for i := range after {
		if math.Abs(after[i]-before[i]) > 1e-12 {
			changed = true
		}
		if after[i] <= 0 {
			t.Errorf("weight %d became non-positive: %v", i, after[i])
		}
		sum += after[i]
	}
	if !changed {
		t.Error("weights did not change despite Shapley update")
	}
	// ω' = 0.2ω + 0.8·normalized SV keeps the total at 1.
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum = %v, want 1", sum)
	}
}

func TestLDPNoiseDegradesWithLowFidelity(t *testing.T) {
	// Sellers with huge privacy sensitivity provide low-fidelity data, so
	// the manufactured model must be worse than one built on nearly-clean
	// data.
	evFor := func(scale float64, seed int64) float64 {
		rng := stat.NewRand(seed)
		full := dataset.SyntheticCCPP(1500, rng)
		train, test := full.Split(1200)
		chunks, _ := dataset.PartitionEqual(train, 4)
		sellers := make([]*Seller, 4)
		for i := range sellers {
			sellers[i] = &Seller{ID: fmt.Sprintf("S%d", i), Lambda: scale, Data: chunks[i]}
		}
		mkt, err := New(sellers, Config{Cost: translog.PaperDefaults(), TestSet: test, Seed: seed})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		buyer := core.PaperBuyer()
		buyer.N = 400
		tx, err := mkt.RunRound(buyer)
		if err != nil {
			t.Fatalf("RunRound: %v", err)
		}
		return tx.Metrics.Performance
	}
	// λ huge → τ tiny → ε ≈ 0 → heavy noise. λ tiny enough clamps the
	// equilibrium fidelity at τ = 1 → ε = MaxEpsilon → clean data.
	// (Moderately small λ does NOT give clean data: equilibrium prices
	// adapt downward and keep τ interior — that is the mechanism working.)
	noisy := evFor(50, 4)
	clean := evFor(1e-9, 5)
	if clean <= noisy {
		t.Errorf("clean-market EV %v should exceed noisy-market EV %v", clean, noisy)
	}
	if clean < 0.85 {
		t.Errorf("near-clean market EV = %v, want close to the no-noise fit", clean)
	}
	if noisy > 0.5 {
		t.Errorf("heavily-noised market EV = %v, want near zero", noisy)
	}
}

func TestWarmupStabilizesAndTruncatesLedger(t *testing.T) {
	mkt, buyer := testMarket(t, 5, &WeightUpdate{Retain: 0.2, Permutations: 8}, 6)
	if err := mkt.Warmup(buyer, 3); err != nil {
		t.Fatalf("Warmup: %v", err)
	}
	if len(mkt.Ledger()) != 0 {
		t.Errorf("warm-up rounds leaked into the ledger: %d", len(mkt.Ledger()))
	}
	// Weights moved away from uniform.
	uniform := true
	for _, w := range mkt.Weights() {
		if math.Abs(w-0.2) > 1e-9 {
			uniform = false
		}
	}
	if uniform {
		t.Error("warm-up left weights uniform")
	}
	// Warm-up without updates is an error.
	mkt2, buyer2 := testMarket(t, 5, nil, 7)
	if err := mkt2.Warmup(buyer2, 2); err == nil {
		t.Error("Warmup accepted a market without weight updates")
	}
}

func TestMultiRoundLedgerGrows(t *testing.T) {
	mkt, buyer := testMarket(t, 5, &WeightUpdate{Retain: 0.2, Permutations: 5}, 8)
	for r := 1; r <= 3; r++ {
		tx, err := mkt.RunRound(buyer)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if tx.Round != r {
			t.Errorf("round number = %d, want %d", tx.Round, r)
		}
	}
	if len(mkt.Ledger()) != 3 {
		t.Errorf("ledger length = %d", len(mkt.Ledger()))
	}
	obs := mkt.CostObservations()
	if len(obs) != 3 {
		t.Errorf("cost observations = %d", len(obs))
	}
	for _, o := range obs {
		if o.N != buyer.N || o.V != buyer.V || o.Cost <= 0 {
			t.Errorf("bad cost observation %+v", o)
		}
	}
}

func TestSetWeights(t *testing.T) {
	mkt, _ := testMarket(t, 4, nil, 9)
	if err := mkt.SetWeights([]float64{1, 2, 3}); err == nil {
		t.Error("accepted wrong weight count")
	}
	if err := mkt.SetWeights([]float64{1, 2, 0, 3}); err == nil {
		t.Error("accepted zero weight")
	}
	if err := mkt.SetWeights([]float64{1, 2, 3, 4}); err != nil {
		t.Errorf("rejected valid weights: %v", err)
	}
	w := mkt.Weights()
	if w[3] != 4 {
		t.Errorf("weights = %v", w)
	}
	// Weights() returns a copy.
	w[0] = 99
	if mkt.Weights()[0] == 99 {
		t.Error("Weights exposes internal state")
	}
}

func TestSellDataWithReplacementWhenAllocationExceedsData(t *testing.T) {
	// One seller with a tiny dataset but a huge allocation must still
	// deliver (sampling with replacement).
	rng := stat.NewRand(10)
	tiny := dataset.SyntheticCCPP(5, rng)
	test := dataset.SyntheticCCPP(50, rng)
	mkt, err := New([]*Seller{{ID: "tiny", Lambda: 0.5, Data: tiny}}, Config{
		Cost: translog.PaperDefaults(), TestSet: test, Seed: 10,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	buyer := core.PaperBuyer()
	buyer.N = 50
	tx, err := mkt.RunRound(buyer)
	if err != nil {
		t.Fatalf("RunRound: %v", err)
	}
	if tx.Pieces[0] != 50 {
		t.Errorf("pieces = %d, want 50", tx.Pieces[0])
	}
}

// TestTradeSizeBounds: a round refuses, with ErrPieces wrapping ErrDemand
// and before it sizes any sale buffer, a demand n that rounds to no piece
// or to more than MaxPieces, and still trades at both ends of the range.
func TestTradeSizeBounds(t *testing.T) {
	mkt, buyer := testMarket(t, 3, nil, 41)
	for _, n := range []float64{0.1, 0.49, MaxPieces + 0.5, 1e12} {
		buyer.N = n
		_, err := mkt.RunRound(buyer)
		if !errors.Is(err, ErrPieces) || !errors.Is(err, ErrDemand) {
			t.Errorf("n=%g: error %v, want ErrPieces wrapping ErrDemand", n, err)
		}
	}
	for _, n := range []float64{0.5, 90} {
		buyer.N = n
		if _, err := mkt.RunRound(buyer); err != nil {
			t.Errorf("n=%g: %v", n, err)
		}
	}
	if got := len(mkt.Ledger()); got != 2 {
		t.Errorf("ledger holds %d rounds, want the 2 admitted ones", got)
	}
}
