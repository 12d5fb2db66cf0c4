package market

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"share/internal/solve"
	"share/internal/translog"
)

// Snapshot is the serializable state of a market between sessions: the
// broker's learned weights, the transaction ledger, and the accumulated
// cost observations. Seller data and configuration are not serialized —
// they are reconstructed by the caller (data files are owned by sellers,
// not the broker) — so restoring requires a market built over the same
// seller roster.
type Snapshot struct {
	// Version guards the wire format.
	Version int `json:"version"`
	// SellerIDs records the roster the snapshot belongs to, in order.
	SellerIDs []string `json:"seller_ids"`
	// Epoch is the roster epoch the snapshot was taken at — how many seller
	// joins and leaves produced the recorded roster. Restore carries it into
	// the market so subsequent log replay validates churn records against
	// the right baseline. Omitted (0) for churn-free markets and snapshots
	// written before roster churn existed.
	Epoch uint64 `json:"epoch,omitempty"`
	// Weights is the broker's weight vector.
	Weights []float64 `json:"weights"`
	// Solver names the equilibrium backend the market ran on, so a restore
	// puts the market back on the same backend regardless of how the new
	// process was configured. Empty (pre-solver snapshots) keeps the
	// restoring market's backend.
	Solver string `json:"solver,omitempty"`
	// Ledger holds the executed transactions.
	Ledger []*Transaction `json:"ledger"`
	// CostLog holds the (N, v, cost) observations for translog refitting.
	CostLog []translog.Observation `json:"cost_log"`
}

// snapshotVersion is the current wire-format version.
const snapshotVersion = 1

// Snapshot captures the market's mutable state.
func (m *Market) Snapshot() *Snapshot {
	ids := make([]string, len(m.sellers))
	for i, s := range m.sellers {
		ids[i] = s.ID
	}
	return &Snapshot{
		Version:   snapshotVersion,
		SellerIDs: ids,
		Epoch:     m.epoch,
		Weights:   m.Weights(),
		Solver:    m.backend.Name(),
		Ledger:    append([]*Transaction(nil), m.ledger...),
		CostLog:   append([]translog.Observation(nil), m.costLog...),
	}
}

// Save writes the market's snapshot as JSON.
func (m *Market) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m.Snapshot()); err != nil {
		return fmt.Errorf("market: saving snapshot: %w", err)
	}
	return nil
}

// Restore applies a snapshot to a market built over the same seller roster
// (IDs must match in order). It replaces the weights, ledger and cost log,
// and resumes the round count after the snapshot's last round (under
// Config.NoLedger the ledger is not kept; see SetHistory).
func (m *Market) Restore(s *Snapshot) error {
	if s == nil {
		return errors.New("market: nil snapshot")
	}
	if s.Version != snapshotVersion {
		return fmt.Errorf("market: unsupported snapshot version %d", s.Version)
	}
	if len(s.SellerIDs) != len(m.sellers) {
		return &RosterError{Msg: fmt.Sprintf("snapshot has %d sellers, market has %d", len(s.SellerIDs), len(m.sellers))}
	}
	for i, id := range s.SellerIDs {
		if m.sellers[i].ID != id {
			return &RosterError{SellerID: id, Msg: fmt.Sprintf("at roster position %d in the snapshot, but the market has %q there", i, m.sellers[i].ID)}
		}
	}
	if s.Solver != "" && s.Solver != m.backend.Name() {
		b, err := solve.Lookup(s.Solver)
		if err != nil {
			return fmt.Errorf("market: restoring solver: %w", err)
		}
		m.backend = b
	}
	if err := m.SetWeights(s.Weights); err != nil {
		return fmt.Errorf("market: restoring weights: %w", err)
	}
	m.rounds, m.last = len(s.Ledger), nil
	if m.rounds > 0 {
		m.last = s.Ledger[m.rounds-1]
	}
	if !m.noLedger {
		m.ledger = append([]*Transaction(nil), s.Ledger...)
		m.costLog = append([]translog.Observation(nil), s.CostLog...)
	}
	m.epoch = s.Epoch
	return nil
}

// Load reads a snapshot written by Save.
func Load(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("market: loading snapshot: %w", err)
	}
	return &s, nil
}
