package market

import (
	"errors"
	"fmt"

	"share/internal/translog"
)

// ApplyCommitted re-applies a transaction committed by a previous process —
// the write-ahead-log replay path — and takes ownership of tx: it becomes
// the committed ledger entry, so the caller must not modify it. The
// round is not re-run: the recorded outcome is trusted. The broker's
// weights are replaced with the transaction's post-update vector (staging
// the solver prototype first, so a rejected vector leaves the market
// untouched), and the round count, the ledger and the cost log gain the
// recorded entries (the count alone under Config.NoLedger). obs is
// the round's manufacturing observation, which the transaction alone does
// not carry.
//
// A transaction that carries BudgetSpent was committed by a budgeted round,
// and replaying it charges the privacy ledger as that round did: every
// seller with Pieces > 0 and ε > 0. Every seller's composed spend must then
// equal BudgetSpent bit for bit (Go's JSON float round-trip is exact, so a
// difference is state drift, not encoding noise). That check runs after the
// charge, so a market that rejects a transaction on it must be discarded.
// A transaction without BudgetSpent charges nothing.
func (m *Market) ApplyCommitted(tx *Transaction, obs translog.Observation) error {
	if tx == nil {
		return errors.New("market: replaying nil transaction")
	}
	if want := m.rounds + 1; tx.Round != want {
		return fmt.Errorf("market: replaying round %d onto a ledger of %d entries", tx.Round, m.rounds)
	}
	// Epoch-stamped transactions must land on the roster they were written
	// under; 0 marks pre-churn records, which predate the stamp (a real
	// trade's epoch is ≥ 1 — every roster took at least one registration).
	if tx.Epoch != 0 && tx.Epoch != m.epoch {
		return &RosterError{Msg: fmt.Sprintf("replaying round %d written at roster epoch %d onto epoch %d", tx.Round, tx.Epoch, m.epoch)}
	}
	charged := tx.BudgetSpent != nil
	if charged {
		if m.budget == nil {
			return fmt.Errorf("market: replaying round %d: it records ε spent, but the market has no privacy budget", tx.Round)
		}
		if len(tx.Pieces) != len(m.sellers) || len(tx.Epsilons) != len(m.sellers) || len(tx.BudgetSpent) != len(m.sellers) {
			return &RosterError{Msg: fmt.Sprintf("replaying round %d with %d pieces, %d ε and %d ε-spent entries onto %d sellers",
				tx.Round, len(tx.Pieces), len(tx.Epsilons), len(tx.BudgetSpent), len(m.sellers))}
		}
	}
	if err := m.SetWeights(tx.Weights); err != nil {
		return fmt.Errorf("market: replaying round %d: %w", tx.Round, err)
	}
	if charged {
		// Charge keeps neither slice, so the scratch goes back at once.
		sc := roundScratches.Get()
		m.budget.Charge(sc.charges(m.sellers, tx.Epsilons, tx.Pieces))
		sc.release()
		for i, s := range m.sellers {
			if got := m.budget.Spent(s.ID); got != tx.BudgetSpent[i] {
				return fmt.Errorf("market: replaying round %d: seller %q has spent ε=%v, the transaction records %v",
					tx.Round, s.ID, got, tx.BudgetSpent[i])
			}
		}
	}
	m.commit(tx, obs)
	return nil
}
