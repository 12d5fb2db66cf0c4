package market

import (
	"math"
	"math/rand"
	"testing"

	"share/internal/product"
)

// TestLedgerReturnsDefensiveCopies: mutating anything reachable from
// Ledger() — the slice, a transaction, or its nested slices — must not
// corrupt the committed ledger.
func TestLedgerReturnsDefensiveCopies(t *testing.T) {
	mkt, buyer := testMarket(t, 4, &WeightUpdate{Retain: 0.2, Permutations: 5}, 12)
	if _, err := mkt.RunRound(buyer); err != nil {
		t.Fatalf("RunRound: %v", err)
	}

	got := mkt.Ledger()
	if len(got) != 1 {
		t.Fatalf("ledger length = %d", len(got))
	}
	// Slice-level: replacing an entry must not touch the market.
	orig := got[0]
	got[0] = nil
	if mkt.Ledger()[0] == nil {
		t.Fatal("replacing a ledger slice entry mutated the market")
	}
	// Entry-level: scalar and nested-slice mutations must not stick.
	orig.Payment = -1
	orig.Pieces[0] = -42
	orig.Weights[0] = 99
	orig.Shapley[0] = 99
	orig.Compensations[0] = -7
	orig.Epsilons[0] = -7
	orig.Profile.Tau[0] = 99
	orig.Metrics.Detail["explained_variance"] = -1

	clean := mkt.Ledger()[0]
	if clean.Payment == -1 {
		t.Error("transaction scalar mutated through the copy")
	}
	if clean.Pieces[0] == -42 {
		t.Error("Pieces aliased the ledger")
	}
	if clean.Weights[0] == 99 {
		t.Error("Weights aliased the ledger")
	}
	if clean.Shapley[0] == 99 {
		t.Error("Shapley aliased the ledger")
	}
	if clean.Compensations[0] == -7 {
		t.Error("Compensations aliased the ledger")
	}
	if clean.Epsilons[0] == -7 {
		t.Error("Epsilons aliased the ledger")
	}
	if clean.Profile.Tau[0] == 99 {
		t.Error("Profile.Tau aliased the ledger")
	}
	if clean.Metrics.Detail["explained_variance"] == -1 {
		t.Error("Metrics.Detail aliased the ledger")
	}
}

// TestSharedLedgerSharesCommittedEntries: SharedLedger hands out the
// committed transactions themselves, in a slice capped at its length so an
// append to it can never write into the market's backing array.
func TestSharedLedgerSharesCommittedEntries(t *testing.T) {
	mkt, buyer := testMarket(t, 4, &WeightUpdate{Retain: 0.2, Permutations: 5}, 12)
	var committed []*Transaction
	for i := 0; i < 3; i++ {
		tx, err := mkt.RunRound(buyer)
		if err != nil {
			t.Fatalf("RunRound: %v", err)
		}
		committed = append(committed, tx)
	}
	shared := mkt.SharedLedger()
	if len(shared) != 3 || cap(shared) != 3 {
		t.Fatalf("SharedLedger len %d cap %d, want 3 and 3", len(shared), cap(shared))
	}
	for i, tx := range shared {
		if tx != committed[i] {
			t.Errorf("entry %d is not the committed transaction", i)
		}
	}
}

// TestPermIntoMatchesRandPerm: sellData's buffered permutation draws what
// rand.Perm draws — element for element, through a reused buffer — and
// leaves the random source in the same state.
func TestPermIntoMatchesRandPerm(t *testing.T) {
	for _, n := range []int{1, 2, 300} {
		want := rand.New(rand.NewSource(int64(n)))
		got := rand.New(rand.NewSource(int64(n)))
		buf := make([]int, n)
		for i := range buf {
			buf[i] = -1 // stale contents must not leak into the draw
		}
		for draw := 0; draw < 3; draw++ {
			exp := want.Perm(n)
			permInto(got, buf)
			for i := range exp {
				if buf[i] != exp[i] {
					t.Fatalf("n=%d draw %d: element %d = %d, rand.Perm has %d", n, draw, i, buf[i], exp[i])
				}
			}
		}
		if a, b := want.Int63(), got.Int63(); a != b {
			t.Errorf("n=%d: next Int63 %d after permInto, %d after rand.Perm", n, b, a)
		}
	}
}

// TestCostObservationsReturnsDefensiveCopies audits the companion accessor:
// Observation is a value type, so a copied slice is a deep copy.
func TestCostObservationsReturnsDefensiveCopies(t *testing.T) {
	mkt, buyer := testMarket(t, 3, nil, 13)
	if _, err := mkt.RunRound(buyer); err != nil {
		t.Fatalf("RunRound: %v", err)
	}
	obs := mkt.CostObservations()
	if len(obs) != 1 {
		t.Fatalf("observations = %d", len(obs))
	}
	obs[0].Cost = -1
	obs[0].N = -1
	if again := mkt.CostObservations(); again[0].Cost == -1 || again[0].N == -1 {
		t.Error("CostObservations exposes internal state")
	}
}

func TestTransactionCloneNil(t *testing.T) {
	var tx *Transaction
	if tx.Clone() != nil {
		t.Error("nil Clone should stay nil")
	}
}

// TestRunRoundShapleyIdenticalAcrossWorkers is the market-level determinism
// gate: for every product, markets that differ only in WeightUpdate.Workers
// must produce bit-identical Shapley values, weights and product
// performance for workers = 1, 2, 8 and the unset default 0. The second
// round checks that the first left the same market state behind (weights
// and the private random stream the LDP sampling draws from).
func TestRunRoundShapleyIdenticalAcrossWorkers(t *testing.T) {
	for _, name := range []string{"ols", "ridge", "logistic", "mean", "histogram"} {
		t.Run(name, func(t *testing.T) {
			var ref []*Transaction
			for _, workers := range []int{0, 1, 2, 8} {
				mkt, buyer := testMarket(t, 9, &WeightUpdate{Retain: 0.2, Permutations: 20, Workers: workers}, 14)
				b, err := product.ByName(name, mkt.testSet)
				if err != nil {
					t.Fatal(err)
				}
				var txs []*Transaction
				for round := 1; round <= 2; round++ {
					tx, err := mkt.RunRoundWith(buyer, b)
					if err != nil {
						t.Fatalf("workers=%d round %d: %v", workers, round, err)
					}
					if tx.Shapley == nil {
						t.Fatalf("workers=%d round %d: no Shapley values", workers, round)
					}
					txs = append(txs, tx)
				}
				if ref == nil {
					ref = txs
					continue
				}
				for r, tx := range txs {
					want := ref[r]
					if !sameBits(tx.Metrics.Performance, want.Metrics.Performance) {
						t.Errorf("workers=%d round %d: performance = %v, want %v", workers, r+1, tx.Metrics.Performance, want.Metrics.Performance)
					}
					for i := range tx.Shapley {
						if !sameBits(tx.Shapley[i], want.Shapley[i]) {
							t.Errorf("workers=%d round %d: Shapley[%d] = %v, want %v", workers, r+1, i, tx.Shapley[i], want.Shapley[i])
						}
						if !sameBits(tx.Weights[i], want.Weights[i]) {
							t.Errorf("workers=%d round %d: Weights[%d] = %v, want %v", workers, r+1, i, tx.Weights[i], want.Weights[i])
						}
					}
				}
			}
		})
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
