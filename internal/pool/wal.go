package pool

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"share/internal/market"
	"share/internal/translog"
	"share/internal/wal"
)

// Durability names a market's trade-persistence mode: how a committed
// trade reaches disk before (or after) it is acknowledged.
type Durability string

const (
	// DurSync appends one WAL record per commit and fsyncs it inline
	// before acknowledging. Strongest latency-per-commit guarantee, no
	// batching.
	DurSync Durability = "sync"
	// DurGroup (default) appends one WAL record per commit; a dedicated
	// syncer goroutine batches concurrent commits into one fsync and each
	// commit is acknowledged once its covering fsync lands.
	DurGroup Durability = "group"
	// DurAsync appends and acknowledges immediately; the syncer flushes in
	// the background. A crash can lose the most recent commits.
	DurAsync Durability = "async"
)

// ParseDurability maps a durability name onto a Durability ("" → DurGroup,
// the group-commit default).
func ParseDurability(s string) (Durability, error) {
	switch Durability(s) {
	case "":
		return DurGroup, nil
	case DurSync, DurGroup, DurAsync:
		return Durability(s), nil
	}
	return "", fmt.Errorf("unknown durability %q (want sync, group or async)", s)
}

// walMode maps the WAL-backed durability levels onto the log's commit
// protocol.
func (d Durability) walMode() wal.Mode {
	switch d {
	case DurSync:
		return wal.ModeSync
	case DurAsync:
		return wal.ModeAsync
	default:
		return wal.ModeGroup
	}
}

// walExt is the per-market WAL segment file suffix under the pool's
// snapshot directory.
const walExt = ".wal"

// compactFloorBytes is the smallest segment a market compacts. Above it a
// segment compacts once it is as large as the market's snapshot file, so
// each compaction writes at most about twice what the log gained since the
// previous one, and a market's snapshot output stays within about twice
// its log bytes however long its history grows.
const compactFloorBytes = 4 << 20

// WAL record kinds.
const (
	// recordRegister logs one pre-trade seller admission (payload:
	// StoredSeller).
	recordRegister = "register"
	// recordTrade logs one committed trading round (payload: tradeRecord).
	recordTrade = "trade"
	// recordJoin logs one mid-life seller admission (payload: joinRecord —
	// the registration plus the admission weight and roster epoch).
	recordJoin = "seller_join"
	// recordLeave logs one seller release at any point of the market's life
	// (payload: leaveRecord).
	recordLeave = "seller_leave"
	// recordBudget logs one budget top-up grant (payload: budgetRecord). A
	// trade's ε charges ride on its trade record.
	recordBudget = "budget_charge"
)

// tradeRecord is the WAL payload of one committed trade: the transaction
// (which carries the post-update weight vector) plus the round's
// manufacturing-cost observation, which the transaction alone does not
// carry but replay must restore into the cost log.
type tradeRecord struct {
	Tx  *market.Transaction  `json:"tx"`
	Obs translog.Observation `json:"obs"`
}

// joinRecord is the WAL payload of one mid-life admission. The recorded
// admission weight is replayed verbatim — replay must reproduce the live
// market's weight vector bit for bit, not re-derive it — and the epoch lets
// replay validate the record against the roster history it lands on.
type joinRecord struct {
	Seller StoredSeller `json:"seller"`
	Weight float64      `json:"weight"`
	Epoch  uint64       `json:"epoch"`
}

// leaveRecord is the WAL payload of one seller release.
type leaveRecord struct {
	ID    string `json:"id"`
	Epoch uint64 `json:"epoch"`
}

// budgetRecord is the WAL payload of one budget top-up. Replay validates
// Epoch against the roster history it lands on — the same discipline as
// churn records, except a top-up extends the current epoch rather than
// opening the next one. Releases that logged each trade's charges in a
// record of this kind after the trade record wrote no TopUpSeller there;
// such a record replays as a no-op, because replaying its trade record
// already charged the ledger.
type budgetRecord struct {
	Epoch       uint64  `json:"epoch"`
	TopUpSeller string  `json:"topup_seller,omitempty"`
	TopUpAmount float64 `json:"topup_amount,omitempty"`
}

// walPath is the market's WAL segment path.
func (m *Market) walPath() string {
	return filepath.Join(m.p.snapshotDir, m.id+walExt)
}

// ensureLogLocked opens the market's WAL segment on first use (writeMu
// held, snapshot directory configured). A leftover segment that still holds
// records belongs to no live state — an orphan from a deleted same-named
// market whose cleanup failed — and is truncated with a warning rather than
// ever replayed into this market. The segment's name is made durable, with
// the directory fsync that publishes the spec snapshot or one of its own,
// before any record is appended. Reports whether a usable log is attached;
// when it is not, the caller saves the mutation as a full snapshot and the
// next mutation tries the log again.
func (m *Market) ensureLogLocked() bool {
	if m.log != nil {
		return true
	}
	err := os.MkdirAll(m.p.snapshotDir, 0o755)
	var l *wal.Log
	if err == nil {
		l, err = wal.Open(m.walPath(), wal.Options{Mode: m.durability.walMode(), Metrics: m.p.walMet})
	}
	if err != nil {
		m.p.logf("pool: market %q: opening wal: %v; writing full snapshot instead", m.id, err)
		return false
	}
	if n := l.Records(); n > 0 {
		m.p.logf("pool: market %q: truncating orphaned wal segment (%d stale records)", m.id, n)
		if err := l.Reset(); err != nil {
			m.p.logf("pool: market %q: resetting orphaned wal: %v; writing full snapshot instead", m.id, err)
			l.Close()
			return false
		}
	}
	// Until the first compaction the market's whole history lives in the
	// log, which carries records but not configuration. Drop a roster-free
	// spec snapshot next to the fresh segment so a crash-reboot restores
	// the market's spec before replaying — the roster itself replays from
	// the log (every admission is a record). It holds budget configuration
	// only, never accounts: the log holds the market's whole charge
	// history, so replay rebuilds every spend from a zeroed ledger. Its
	// directory fsync also covers the segment just created.
	if _, err = os.Stat(m.snapshotPath()); errors.Is(err, os.ErrNotExist) {
		var n int64
		if n, err = writeSnapshotFile(m.snapshotPath(), m.specSnapshot()); err == nil {
			m.snapBytes = n
		}
	} else {
		err = syncDir(m.p.snapshotDir)
	}
	if err != nil {
		m.p.logf("pool: market %q: making the wal segment durable: %v; writing full snapshot instead", m.id, err)
		l.Close()
		return false
	}
	m.log = l
	return true
}

// attachLogReplay opens the market's WAL segment at restore time and
// replays every record past the snapshot watermark into the market
// (RestoreAll's boot path, on a market restoreOne has just built and not
// yet put in the pool). snapBytes is the size of the snapshot file the
// market was restored from. The segment is created when absent; RestoreAll
// syncs the directory.
func (m *Market) attachLogReplay(walFloor uint64, snapBytes int64) error {
	m.writeMu.Lock()
	defer m.writeMu.Unlock()
	applied := 0
	l, err := wal.Open(m.walPath(), wal.Options{
		Mode:    m.durability.walMode(),
		MinSeq:  walFloor,
		Metrics: m.p.walMet,
		Replay: func(rec *wal.Record) error {
			if rec.Seq <= walFloor {
				return nil // already reflected in the restored snapshot
			}
			if err := m.applyRecordLocked(rec); err != nil {
				return err
			}
			applied++
			return nil
		},
	})
	if err != nil {
		return err
	}
	m.log, m.snapBytes = l, snapBytes
	if applied > 0 {
		if err := m.publishView(nil); err != nil {
			l.Close()
			m.log = nil
			return fmt.Errorf("pool: market %q: replayed wal state rejected: %w", m.id, err)
		}
		m.p.logf("pool: market %q: replayed %d wal record(s) past snapshot seq %d", m.id, applied, walFloor)
	}
	return nil
}

// decodeRecord decodes a replayed record's data into v. The log hands the
// data over unexamined, so this is the record's one decode, and data that
// does not decode marks the segment corrupt.
func decodeRecord(rec *wal.Record, v any) error {
	if err := json.Unmarshal(rec.Data, v); err != nil {
		return fmt.Errorf("pool: decoding %s record %d: %w: %w", rec.Kind, rec.Seq, wal.ErrCorrupt, err)
	}
	return nil
}

// applyRecordLocked replays one WAL record into the market (writeMu held).
// The caller publishes the view once after the batch.
func (m *Market) applyRecordLocked(rec *wal.Record) error {
	switch rec.Kind {
	case recordRegister:
		if m.mkt != nil {
			return fmt.Errorf("pool: register record %d after trading began", rec.Seq)
		}
		var st StoredSeller
		if err := decodeRecord(rec, &st); err != nil {
			return err
		}
		d, err := m.storedData(st.Rows, st.Targets)
		if err != nil {
			return fmt.Errorf("pool: register record %d: seller %q: %w", rec.Seq, st.ID, err)
		}
		m.sellers = append(m.sellers, &market.Seller{ID: st.ID, Lambda: st.Lambda, Data: d})
		m.rosterEpoch++
		return nil
	case recordTrade:
		var tr tradeRecord
		if err := decodeRecord(rec, &tr); err != nil {
			return err
		}
		mkt, err := m.tradingLocked()
		if err != nil {
			return fmt.Errorf("pool: trade record %d: %w", rec.Seq, err)
		}
		if err := mkt.ApplyCommitted(tr.Tx, tr.Obs); err != nil {
			return fmt.Errorf("pool: trade record %d: %w", rec.Seq, err)
		}
		m.refs = append(m.refs, TradeRef{off: rec.Frame.Off, n: int32(rec.Frame.Len), inLog: true})
		return nil
	case recordJoin:
		var jr joinRecord
		if err := decodeRecord(rec, &jr); err != nil {
			return err
		}
		if m.mkt == nil {
			return fmt.Errorf("pool: join record %d before trading began: %w", rec.Seq,
				&market.RosterError{SellerID: jr.Seller.ID, Msg: "mid-life join replayed onto a pre-trade market"})
		}
		d, err := m.storedData(jr.Seller.Rows, jr.Seller.Targets)
		if err != nil {
			return fmt.Errorf("pool: join record %d: seller %q: %w", rec.Seq, jr.Seller.ID, err)
		}
		sel := &market.Seller{ID: jr.Seller.ID, Lambda: jr.Seller.Lambda, Data: d}
		if err := m.mkt.ApplyJoin(sel, jr.Weight, jr.Epoch); err != nil {
			return fmt.Errorf("pool: join record %d: %w", rec.Seq, err)
		}
		m.sellers = append(m.sellers, sel)
		m.rosterEpoch = jr.Epoch
		return nil
	case recordBudget:
		var br budgetRecord
		if err := decodeRecord(rec, &br); err != nil {
			return err
		}
		if m.cfg.Budget == nil {
			return fmt.Errorf("pool: budget record %d replayed into a market without a privacy budget", rec.Seq)
		}
		// Ledger mutations never advance the epoch, so the record must sit
		// exactly on the roster history it was written under — the same
		// validation trades get in ApplyCommitted.
		if br.Epoch != m.rosterEpoch {
			return fmt.Errorf("pool: budget record %d: %w", rec.Seq,
				&market.RosterError{Msg: fmt.Sprintf("record at epoch %d, roster at epoch %d", br.Epoch, m.rosterEpoch)})
		}
		if br.TopUpSeller == "" {
			return nil // an earlier release's trade charge
		}
		if _, err := m.cfg.Budget.TopUp(br.TopUpSeller, br.TopUpAmount); err != nil {
			return fmt.Errorf("pool: budget record %d: replaying top-up: %w", rec.Seq, err)
		}
		return nil
	case recordLeave:
		var lr leaveRecord
		if err := decodeRecord(rec, &lr); err != nil {
			return err
		}
		idx := -1
		for i, sel := range m.sellers {
			if sel.ID == lr.ID {
				idx = i
				break
			}
		}
		if idx < 0 {
			return fmt.Errorf("pool: leave record %d: %w", rec.Seq,
				&market.RosterError{SellerID: lr.ID, Msg: "unknown seller"})
		}
		if m.mkt != nil {
			if err := m.mkt.ApplyLeave(lr.ID, lr.Epoch); err != nil {
				return fmt.Errorf("pool: leave record %d: %w", rec.Seq, err)
			}
		} else if lr.Epoch != m.rosterEpoch+1 {
			return fmt.Errorf("pool: leave record %d: %w", rec.Seq,
				&market.RosterError{Msg: fmt.Sprintf("epoch %d does not follow roster epoch %d", lr.Epoch, m.rosterEpoch)})
		}
		m.sellers = append(m.sellers[:idx:idx], m.sellers[idx+1:]...)
		m.rosterEpoch = lr.Epoch
		return nil
	default:
		return fmt.Errorf("pool: unknown wal record kind %q (record %d): %w", rec.Kind, rec.Seq, wal.ErrCorrupt)
	}
}

// persisted reports whether the market's pool persists mutations.
func (m *Market) persisted() bool { return m.p.snapshotDir != "" }

// persistRecordLocked makes one committed mutation — a registration,
// trade, join, leave or top-up — durable (writeMu held): it appends the
// record and returns its sequence number for the caller to Commit outside
// the lock. A mutation the log cannot take is saved at once as a full
// snapshot and 0 is returned; it is never failed because the disk was. A
// trade record's round joins the trade history where it lies: the frame
// just appended, or memory until a snapshot holds it — at once in a pool
// without a snapshot directory, which keeps every round there.
func (m *Market) persistRecordLocked(kind string, payload any) (*wal.Log, uint64) {
	round, _ := payload.(*tradeRecord)
	if !m.persisted() {
		m.holdRound(round)
		return nil, 0
	}
	if !m.ensureLogLocked() {
		m.holdRound(round)
		m.saveLocked()
		return nil, 0
	}
	seq, fr, err := m.log.Append(kind, payload)
	if err != nil {
		m.p.logf("pool: market %q: wal append failed: %v; writing full snapshot instead", m.id, err)
		m.holdRound(round)
		m.saveLocked()
		return nil, 0
	}
	if round != nil {
		m.refs = append(m.refs, TradeRef{off: fr.Off, n: int32(fr.Len), inLog: true, verbatim: true})
	}
	m.maybeCompactLocked()
	return m.log, seq
}

// holdRound adds round, if any, to the trade history as held in memory
// (writeMu held).
func (m *Market) holdRound(round *tradeRecord) {
	if round != nil {
		m.refs = append(m.refs, TradeRef{mem: round})
	}
}

// commitWal waits out one record's durability barrier per the log's mode.
// Called outside writeMu so fsyncs overlap the next round's solve — that
// overlap is what the group-commit syncer batches.
func (m *Market) commitWal(l *wal.Log, seq uint64) {
	if l == nil || seq == 0 {
		return
	}
	if err := l.Commit(seq); err != nil {
		m.p.logf("pool: market %q: wal commit (seq %d): %v", m.id, seq, err)
	}
}

// maybeCompactLocked folds the WAL into a fresh snapshot and truncates the
// segment once it is as large as the market's snapshot file and at least
// the pool's floor (writeMu held). The trigger makes compaction cost
// proportional to the log: the snapshot it writes is at most the previous
// one plus what the log gained, so about twice that gain. The snapshot
// records the covered watermark (WalSeq), so a reboot never replays
// compacted records.
func (m *Market) maybeCompactLocked() {
	if m.log == nil || m.log.Size() < max(m.p.compactFloor, m.snapBytes) {
		return
	}
	if err := m.checkpointLocked(); err != nil {
		m.p.logf("pool: market %q: compaction: %v", m.id, err)
		return
	}
	m.p.logf("pool: market %q: compacted wal into snapshot (seq %d)", m.id, m.log.LastSeq())
}

// checkpointLocked persists the market's snapshot and then truncates its
// WAL (writeMu held), so no record committed between the two steps can be
// lost to the truncation: compaction, and SaveAll's shutdown path. The
// snapshot reads the trade history back before it becomes where every
// round lies, and its rename is durable before the truncation starts.
func (m *Market) checkpointLocked() error {
	if err := m.writeHistoryLocked(m.snapshotPath(), true); err != nil {
		return err
	}
	if m.log != nil {
		if err := m.log.Reset(); err != nil {
			m.p.logf("pool: market %q: truncating wal after checkpoint: %v", m.id, err)
		}
	}
	return nil
}

// checkpoint is checkpointLocked under the market's write lock.
func (m *Market) checkpoint() error {
	m.writeMu.Lock()
	defer m.writeMu.Unlock()
	return m.checkpointLocked()
}

// closeLog flushes and closes the market's WAL segment, if open, and the
// snapshot generation its trade history lies in. A closed segment still
// reads its frames back; the closed snapshot does not.
func (m *Market) closeLog() {
	m.writeMu.Lock()
	defer m.writeMu.Unlock()
	if m.ledger != nil {
		m.ledger.f.Close()
	}
	if m.log == nil {
		return
	}
	if err := m.log.Close(); err != nil {
		m.p.logf("pool: market %q: closing wal: %v", m.id, err)
	}
	m.log = nil
}

// Drain marks the pool as shutting down: every hosted market (and any
// future Create) refuses new trades and registrations with ErrDraining,
// and trades parked in admission queues are woken and rejected. In-flight
// rounds keep running — Close waits them out. Safe to call more than once;
// the HTTP layer maps ErrDraining onto 503 + Retry-After so clients fail
// over instead of hanging into a dying process.
func (p *Pool) Drain() {
	p.mu.Lock()
	p.draining = true
	ms := make([]*Market, 0, len(p.markets))
	for _, m := range p.markets {
		ms = append(ms, m)
	}
	p.mu.Unlock()
	for _, m := range ms {
		m.close(ErrDraining)
	}
}

// Close terminally shuts the pool down: Drain, wait out every market's
// in-flight rounds, then flush and close every WAL segment (the shutdown
// hook, after SaveAll). Close is the end of the pool's life — a later
// mutation fails with ErrDraining rather than silently reopening (and
// truncating, as "orphaned") a segment whose flushed history was already
// acknowledged.
func (p *Pool) Close() {
	p.Drain()
	p.mu.RLock()
	ms := make([]*Market, 0, len(p.markets))
	for _, m := range p.markets {
		ms = append(ms, m)
	}
	p.mu.RUnlock()
	for _, m := range ms {
		m.inFlight.Wait()
		m.closeLog()
	}
}
