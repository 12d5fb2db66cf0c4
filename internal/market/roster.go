package market

import (
	"fmt"
	"slices"
)

// Roster churn. A live market admits and releases sellers between rounds:
// each mutation builds the game for the next roster and precomputes it from
// scratch (prototype), exactly as New and SetWeights do, and only on
// success swaps it in together with the roster slices. A failed churn
// therefore leaves the market byte-identical to before the call, and a
// market restored over the same roster and weights serves the same quotes
// bit for bit.
//
// Every mutation bumps the market's roster epoch. Transactions and snapshots
// are stamped with the epoch they were written under, and the replay path
// (ApplyJoin / ApplyLeave) validates each recorded churn against it, so a
// restored market and its log cannot silently disagree about which roster a
// record describes.

// Epoch returns the market's roster epoch — the number of seller joins and
// leaves applied over its life.
func (m *Market) Epoch() uint64 { return m.epoch }

// SetEpoch overwrites the roster epoch. It exists for restore paths that
// reconstruct a market from a snapshot whose roster already includes churn
// the new process never saw; normal code never calls it.
func (m *Market) SetEpoch(e uint64) { m.epoch = e }

// AddSeller admits a new seller mid-life and returns the weight she was
// admitted at: the mean of the current weights. Every observable of the
// three-stage game is invariant to uniform weight scaling, so a mean-weight
// joiner changes prices exactly as much as her λ and data warrant — no more
// because the weight mass shifted. Validation failures (see checkSeller, and
// a duplicate ID) return a *RosterError and leave the market untouched.
func (m *Market) AddSeller(s *Seller) (float64, error) {
	if err := checkSeller(s, m.testSet.NumFeatures()); err != nil {
		return 0, err
	}
	weights := m.proto.Game().Broker.Weights
	var sum float64
	for _, w := range weights {
		sum += w
	}
	weight := sum / float64(len(weights))
	if err := m.applyJoin(s, weight, m.epoch+1); err != nil {
		return 0, err
	}
	return weight, nil
}

// RemoveSeller releases the identified seller. Unknown IDs and removing the
// last seller return a *RosterError; the remaining weights keep their values
// (the game is scale-invariant, so renormalizing would only churn bits).
func (m *Market) RemoveSeller(id string) error {
	return m.applyLeave(id, m.epoch+1)
}

// ApplyJoin re-applies a seller join recorded by a previous process — the
// write-ahead-log replay path. The recorded admission weight is trusted
// verbatim (it need not be the mean the live path would compute today), and
// the recorded epoch must be exactly the next one the market expects. The
// seller passes the same checks as a live AddSeller, so a log can never
// admit data the live path would have refused.
func (m *Market) ApplyJoin(s *Seller, weight float64, epoch uint64) error {
	if err := m.checkEpoch(epoch); err != nil {
		return err
	}
	if err := checkSeller(s, m.testSet.NumFeatures()); err != nil {
		return err
	}
	if !(weight > 0) {
		return &RosterError{SellerID: s.ID, Msg: fmt.Sprintf("invalid admission weight %g", weight)}
	}
	return m.applyJoin(s, weight, epoch)
}

// ApplyLeave re-applies a recorded seller leave; see ApplyJoin.
func (m *Market) ApplyLeave(id string, epoch uint64) error {
	if err := m.checkEpoch(epoch); err != nil {
		return err
	}
	return m.applyLeave(id, epoch)
}

// checkSeller is the admission check New, AddSeller and ApplyJoin share: a
// non-nil seller with a positive λ and a non-empty, well-formed dataset of
// k features — the test set's width, so every product the market builds
// scores against the columns it trained on. Failures are *RosterErrors.
func checkSeller(s *Seller, k int) error {
	if s == nil {
		return &RosterError{Msg: "cannot add a nil seller"}
	}
	if !(s.Lambda > 0) {
		return &RosterError{SellerID: s.ID, Msg: fmt.Sprintf("invalid λ=%g", s.Lambda)}
	}
	if s.Data == nil || s.Data.Len() == 0 {
		return &RosterError{SellerID: s.ID, Msg: "no data"}
	}
	if err := s.Data.Validate(); err != nil {
		return &RosterError{SellerID: s.ID, Msg: err.Error()}
	}
	if w := s.Data.NumFeatures(); w != k {
		return &RosterError{SellerID: s.ID, Msg: fmt.Sprintf("dataset has %d features, market expects %d", w, k)}
	}
	return nil
}

func (m *Market) checkEpoch(epoch uint64) error {
	if epoch != m.epoch+1 {
		return &RosterError{Msg: fmt.Sprintf("replaying churn epoch %d onto a market at epoch %d", epoch, m.epoch)}
	}
	return nil
}

// applyJoin precomputes the game with s appended at the given weight and
// commits the roster change at the given epoch.
func (m *Market) applyJoin(s *Seller, weight float64, epoch uint64) error {
	for _, have := range m.sellers {
		if have.ID == s.ID {
			return &RosterError{SellerID: s.ID, Msg: "already registered"}
		}
	}
	g := m.proto.Game()
	n := len(m.sellers)
	proto, err := m.prototype(append(g.Sellers.Lambda[:n:n], s.Lambda), append(g.Broker.Weights[:n:n], weight))
	if err != nil {
		return &RosterError{SellerID: s.ID, Msg: fmt.Sprintf("precomputing solver prototype: %v", err)}
	}
	m.sellers = append(m.sellers, s)
	m.proto = proto
	m.epoch = epoch
	return nil
}

// applyLeave precomputes the game without the identified seller and commits
// the removal at the given epoch.
func (m *Market) applyLeave(id string, epoch uint64) error {
	idx := -1
	for i, s := range m.sellers {
		if s.ID == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		return &RosterError{SellerID: id, Msg: "unknown seller"}
	}
	if len(m.sellers) == 1 {
		return &RosterError{SellerID: id, Msg: "cannot remove the last seller"}
	}
	g := m.proto.Game()
	lambdas := slices.Delete(slices.Clone(g.Sellers.Lambda), idx, idx+1)
	proto, err := m.prototype(lambdas, slices.Delete(slices.Clone(g.Broker.Weights), idx, idx+1))
	if err != nil {
		return &RosterError{SellerID: id, Msg: fmt.Sprintf("precomputing solver prototype: %v", err)}
	}
	m.sellers = append(m.sellers[:idx:idx], m.sellers[idx+1:]...)
	m.proto = proto
	m.epoch = epoch
	return nil
}
