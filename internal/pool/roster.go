package pool

import (
	"context"
	"fmt"
	"time"

	"share/internal/core"
	"share/internal/market"
	"share/internal/wal"
)

// Pool-level roster churn and the live event stream. A market's roster is
// mutable over its whole life: RegisterSeller admits sellers mid-trading
// through the inner market's churn path, RemoveSeller releases them, and
// both swap the published View copy-on-write — quotes running against the
// old view finish undisturbed, quotes arriving after the swap see the new
// roster. Subscribers opened with Subscribe receive an Event
// after every committed roster change and trade.

// Event is one entry of a market's live stream.
type Event struct {
	// Type is "roster" (a join or leave) or "weights" (a committed trade
	// moved the weight vector).
	Type string `json:"type"`
	// Market names the emitting market.
	Market string `json:"market"`
	// Epoch is the roster epoch after the event.
	Epoch uint64 `json:"epoch"`
	// Round is the committed round for weights events (0 for roster events).
	Round int `json:"round,omitempty"`
	// Seller and Action describe roster events: who joined or left.
	Seller string `json:"seller,omitempty"`
	Action string `json:"action,omitempty"`
	// Sellers is the roster after the event, in order.
	Sellers []string `json:"sellers"`
	// Weights is the broker's weight vector after the event.
	Weights []float64 `json:"weights"`
	// PM and PD are the prototype equilibrium prices over the post-event
	// roster (the paper's reference buyer for roster events, the committed
	// round's profile for weights events). Zero when no prototype solves.
	PM float64 `json:"pm,omitempty"`
	PD float64 `json:"pd,omitempty"`
}

// RemoveSeller releases the identified seller from the roster. Before the
// first trade the seller is simply unregistered (down to an empty roster);
// mid-life the inner market applies the leave (the last seller cannot be
// removed). Unknown IDs return a *market.RosterError. The removal
// is logged to the WAL like any other roster mutation, so replay reproduces
// the exact roster history.
func (m *Market) RemoveSeller(id string) error {
	if err := m.begin(); err != nil {
		return err
	}
	defer m.end()
	l, seq, err := m.removeLocked(id)
	if err != nil {
		return err
	}
	m.commitWal(l, seq)
	return nil
}

// removeLocked is RemoveSeller's write-lock section.
func (m *Market) removeLocked(id string) (*wal.Log, uint64, error) {
	m.writeMu.Lock()
	defer m.writeMu.Unlock()
	idx := -1
	for i, sel := range m.sellers {
		if sel.ID == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, 0, fmt.Errorf("seller %q: %w", id, ErrSellerNotFound)
	}
	if m.mkt != nil {
		if err := m.mkt.RemoveSeller(id); err != nil {
			return nil, 0, err
		}
		m.sellers = append(m.sellers[:idx:idx], m.sellers[idx+1:]...)
		m.rosterEpoch = m.mkt.Epoch()
		m.publishChurnView()
	} else {
		m.sellers = append(m.sellers[:idx:idx], m.sellers[idx+1:]...)
		m.rosterEpoch++
		if err := m.publishView(nil); err != nil {
			// An already-admitted roster minus one seller re-validates by
			// construction; a failure here means the view could not be
			// rebuilt at all. Keep the removal and log — the next publish
			// refreshes the view.
			m.p.logf("pool: market %q: view rebuild after removing %q: %v", m.id, id, err)
		}
	}
	wl, wseq := m.persistRecordLocked(recordLeave, leaveRecord{ID: id, Epoch: m.rosterEpoch})
	m.emitRoster("leave", id)
	m.p.logf("pool: market %q released seller %q (epoch %d)", m.id, id, m.rosterEpoch)
	return wl, wseq, nil
}

// publishChurnView swaps the view after a mid-life roster change, timing
// the publication under market/<id>/reprepare. The inner market has
// already precomputed the game for the new roster; the new view holds it
// for every backend to bind on first read, so a restart serves the same
// quotes. Must be called with writeMu held.
func (m *Market) publishChurnView() {
	t0 := time.Now()
	if err := m.publishView(nil); err != nil {
		m.p.logf("pool: market %q: view rebuild after churn: %v (serving stale view until next publish)", m.id, err)
		return
	}
	m.reprepObs.Observe(time.Since(t0))
}

// Subscribe opens a live event channel with the given buffer (≤ 0 selects
// 16). Events published while the buffer is full are dropped for that
// subscriber — a stalled consumer can fall behind but can never stall the
// market's write path. The returned cancel closes the channel and releases
// the slot; it is safe to call more than once.
func (m *Market) Subscribe(buf int) (<-chan Event, func()) {
	if buf <= 0 {
		buf = 16
	}
	ch := make(chan Event, buf)
	m.subMu.Lock()
	id := m.nextSub
	m.nextSub++
	m.subs[id] = ch
	m.subGauge.Set(int64(len(m.subs)))
	m.subMu.Unlock()
	cancel := func() {
		m.subMu.Lock()
		defer m.subMu.Unlock()
		if _, ok := m.subs[id]; !ok {
			return
		}
		delete(m.subs, id)
		m.subGauge.Set(int64(len(m.subs)))
		close(ch)
	}
	return ch, cancel
}

// emit fans one event out to every subscriber without blocking. Sends and
// channel closes are both serialized under subMu, so emit never races a
// cancel.
func (m *Market) emit(ev Event) {
	m.subMu.Lock()
	defer m.subMu.Unlock()
	for _, ch := range m.subs {
		select {
		case ch <- ev:
		default: // subscriber behind; drop
		}
	}
}

// snapshotEvent seeds an event with the just-published view's roster state.
func (m *Market) snapshotEvent(typ string) Event {
	v := m.View()
	ev := Event{Type: typ, Market: m.id, Epoch: v.Epoch, Weights: v.Weights}
	ev.Sellers = make([]string, len(v.Sellers))
	for i, s := range v.Sellers {
		ev.Sellers[i] = s.ID
	}
	return ev
}

// emitRoster publishes a roster event, with prototype prices solved against
// the new view's default backend when the roster is non-empty. Called under
// writeMu after the view swap; churn is rare, so the prototype solve's cost
// (microseconds on the closed forms) stays off every hot path.
func (m *Market) emitRoster(action, seller string) {
	if !m.hasSubscribers() {
		return
	}
	ev := m.snapshotEvent("roster")
	ev.Action = action
	ev.Seller = seller
	if proto, ok := m.View().Protos[m.cfg.Solver.Name()]; ok {
		var prof core.Profile
		if err := proto.SolveFor(context.Background(), core.PaperBuyer(), &prof); err == nil {
			ev.PM, ev.PD = prof.PM, prof.PD
		}
	}
	m.emit(ev)
}

// emitWeights publishes a weight-trajectory event for one committed trade.
func (m *Market) emitWeights(tx *market.Transaction) {
	if !m.hasSubscribers() {
		return
	}
	ev := m.snapshotEvent("weights")
	ev.Round = tx.Round
	if tx.Profile != nil {
		ev.PM, ev.PD = tx.Profile.PM, tx.Profile.PD
	}
	m.emit(ev)
}

// hasSubscribers reports whether anyone is listening, letting emitters skip
// event assembly (and the roster prototype solve) entirely when nobody is.
func (m *Market) hasSubscribers() bool {
	m.subMu.Lock()
	defer m.subMu.Unlock()
	return len(m.subs) > 0
}
