package pool

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"share/internal/budget"
	"share/internal/market"
)

// MarketSnapshot is the crash-safe persisted state of one market: its
// resolved spec, the full seller roster (the market.Snapshot alone
// deliberately omits seller data — the pool owns the registrations, so it
// persists them) plus the market's budget accounts, learned weights, ledger
// and cost log. A restore builds the market from the spec and loads the
// rest into it, so it quotes and trades exactly as the one that saved it.
//
// The spec is the one record of the market's settings. Older layouts — the
// single-market server's file (version 1, no id), and pool files written
// before snapshots stored the spec, which carried some settings at top
// level — are read by ReadSnapshotFile alone, which turns their settings
// into a partial Spec.
type MarketSnapshot struct {
	// Version guards the wire format.
	Version int `json:"version"`
	// ID names the market the snapshot belongs to ("" in legacy
	// single-market files).
	ID string `json:"id,omitempty"`
	// WalSeq is the highest WAL sequence number this snapshot reflects
	// (0 in pre-WAL files and for markets without WAL activity). Replay
	// skips records at or below it.
	WalSeq uint64 `json:"wal_seq,omitempty"`
	// RosterEpoch counts the roster mutations (registrations, joins,
	// leaves) behind the stored roster, so WAL replay on top of the restored
	// snapshot validates each churn record against the history it actually
	// extends. 0 in pre-churn files, whose epoch replay re-derives from the
	// register records.
	RosterEpoch uint64 `json:"roster_epoch,omitempty"`
	// Spec is the market's resolved spec, every field explicit: a restore
	// builds the market from it whole, whatever the restoring pool's
	// defaults. For a file written before snapshots stored it,
	// ReadSnapshotFile fills in the partial spec its older fields name.
	Spec *Spec `json:"spec,omitempty"`
	// BudgetAccounts is each seller's ledger account at save time, keyed
	// by seller ID; sellers who never charged are omitted. Restored
	// verbatim, so the composed ε-spent after a reboot is bit-identical
	// to the spend at save time.
	BudgetAccounts map[string]budget.Account `json:"budget_accounts,omitempty"`
	// Sellers is the registered roster in order.
	Sellers []StoredSeller `json:"sellers"`
	// Market is the trading state; nil when no trade has executed yet.
	Market *market.Snapshot `json:"market,omitempty"`

	// restored, set by the restore path's reader, locates the market's
	// ledger and cost log in the file it read, which Market then leaves
	// out.
	restored *restoredLedger
}

// StoredSeller serializes one registration.
type StoredSeller struct {
	ID      string      `json:"id"`
	Lambda  float64     `json:"lambda"`
	Rows    [][]float64 `json:"rows"`
	Targets []float64   `json:"targets"`
}

// snapshotVersion is the current wire-format version (shared with the
// legacy single-market server snapshot).
const snapshotVersion = 1

// snapshotExt is the per-market snapshot file suffix under the pool's
// snapshot directory.
const snapshotExt = ".json"

// Snapshot captures the market's full persistent state: what a save
// writes, decoded, its ledger and cost log read back from the trade
// history. It takes the market's write lock, so the snapshot is
// consistent with respect to concurrent trades. A history it cannot read
// back is logged and left out.
func (m *Market) Snapshot() *MarketSnapshot {
	m.writeMu.Lock()
	defer m.writeMu.Unlock()
	var raw bytes.Buffer
	h := m.historyLocked()
	_, _, err := h.encodeSnapshot(&raw, m.snapshotLocked())
	var snap MarketSnapshot
	if err == nil {
		err = json.Unmarshal(raw.Bytes(), &snap)
	}
	if err != nil {
		m.p.logf("pool: market %q: reading the trade history back: %v", m.id, err)
		return m.snapshotLocked()
	}
	return &snap
}

// spec returns the market's resolved spec, every field explicit.
func (m *Market) spec() Spec {
	seed, conc, queue, eps := m.cfg.Seed, cap(m.adm.slots), m.adm.queueCap, m.epsBudget
	return Spec{
		ID:               m.id,
		Solver:           m.cfg.Solver.Name(),
		Seed:             &seed,
		Durability:       string(m.durability),
		TradeConcurrency: &conc,
		TradeQueue:       &queue,
		EpsilonBudget:    &eps,
		Composition:      string(m.composition),
	}
}

// over returns s with base's admission settings, and base's value for
// every other field s leaves unset.
func (s Spec) over(base Spec) Spec {
	s.Solver, s.Seed, s.Durability = cmp.Or(s.Solver, base.Solver), cmp.Or(s.Seed, base.Seed), cmp.Or(s.Durability, base.Durability)
	s.EpsilonBudget, s.Composition = cmp.Or(s.EpsilonBudget, base.EpsilonBudget), cmp.Or(s.Composition, base.Composition)
	s.TradeConcurrency, s.TradeQueue = base.TradeConcurrency, base.TradeQueue
	return s
}

// specSnapshot is the roster-free head of every snapshot: the market's
// identity and its resolved spec, every field explicit so a restore builds
// the market from it whatever the pool's defaults. On its own it is the
// spec snapshot written beside a new WAL segment.
func (m *Market) specSnapshot() *MarketSnapshot {
	spec := m.spec()
	return &MarketSnapshot{Version: snapshotVersion, ID: m.id, Spec: &spec}
}

// snapshotLocked is Snapshot with writeMu already held, without the
// ledger and cost log, which the history supplies (see
// history.encodeSnapshot). The sellers' rows are views over their
// datasets, their headers in one block for the whole roster.
func (m *Market) snapshotLocked() *MarketSnapshot {
	snap := m.specSnapshot()
	if m.log != nil {
		snap.WalSeq = m.log.LastSeq()
	}
	snap.RosterEpoch = m.rosterEpoch
	if m.cfg.Budget != nil {
		snap.BudgetAccounts = m.cfg.Budget.Accounts()
	}
	n := 0
	for _, sel := range m.sellers {
		n += sel.Data.Len()
	}
	rows := make([][]float64, 0, n)
	for _, sel := range m.sellers {
		start := len(rows)
		rows = sel.Data.AppendRows(rows)
		snap.Sellers = append(snap.Sellers, StoredSeller{
			ID:      sel.ID,
			Lambda:  sel.Lambda,
			Rows:    rows[start:len(rows):len(rows)],
			Targets: sel.Data.Y,
		})
	}
	if m.mkt != nil {
		snap.Market = m.mkt.Snapshot()
	}
	return snap
}

// RestoreSnapshot loads a snapshot's state into a fresh market (no
// registrations, no trades): the budget accounts, the roster re-registered
// from the stored data and, when the snapshot was trading, the inner market
// rebuilt with its weights, round count and last transaction, and the
// trade history: where restoreOne's reader found the ledger in its file,
// or, for a snapshot that carries its ledger, in memory, one cost-log entry
// per round. It applies none of the snapshot's settings — restoreOne builds
// the market from the stored spec first — and a market it fails on must be
// discarded.
func (m *Market) RestoreSnapshot(snap *MarketSnapshot) error {
	if snap == nil {
		return errors.New("pool: nil snapshot")
	}
	if snap.Version != snapshotVersion {
		return fmt.Errorf("pool: unsupported snapshot version %d", snap.Version)
	}
	if snap.ID != "" && snap.ID != m.id {
		return fmt.Errorf("pool: snapshot belongs to market %q, not %q", snap.ID, m.id)
	}
	m.writeMu.Lock()
	defer m.writeMu.Unlock()
	if len(m.sellers) > 0 || m.mkt != nil {
		return errors.New("pool: snapshot restore requires a fresh market")
	}
	if m.cfg.Budget != nil {
		// The saved accounts restore the composed spend exactly.
		m.cfg.Budget.Restore(snap.BudgetAccounts)
	}
	sellers := make([]*market.Seller, len(snap.Sellers))
	for i, st := range snap.Sellers {
		d, err := m.storedData(st.Rows, st.Targets)
		if err != nil {
			return fmt.Errorf("pool: snapshot seller %q: %w", st.ID, err)
		}
		sellers[i] = &market.Seller{ID: st.ID, Lambda: st.Lambda, Data: d}
	}
	var mkt *market.Market
	var refs []TradeRef
	if snap.Market != nil {
		var err error
		mkt, err = market.New(sellers, m.cfg)
		if err != nil {
			return fmt.Errorf("pool: rebuilding market from snapshot: %w", err)
		}
		if err := mkt.Restore(snap.Market); err != nil {
			return err
		}
		last := mkt.Last()
		if led := snap.restored; led != nil {
			refs, last = led.refs, led.last
		} else {
			ledger, costs := snap.Market.Ledger, snap.Market.CostLog
			if len(costs) != len(ledger) {
				return fmt.Errorf("pool: snapshot holds %d cost-log entries for %d rounds", len(costs), len(ledger))
			}
			refs = make([]TradeRef, len(ledger))
			for i, tx := range ledger {
				refs[i] = TradeRef{mem: &tradeRecord{Tx: tx, Obs: costs[i]}}
			}
		}
		mkt.SetHistory(len(refs), last)
	}
	if mkt != nil && snap.Market.Epoch != snap.RosterEpoch {
		// Pool and market snapshots are written together, so their epochs
		// agree for every pool-written file; legacy files carry neither
		// (both read back 0). A mismatch means the file pair was spliced.
		return fmt.Errorf("pool: snapshot state rejected: %w", &market.RosterError{Msg: fmt.Sprintf(
			"market snapshot at epoch %d, pool snapshot at epoch %d", snap.Market.Epoch, snap.RosterEpoch)})
	}
	m.sellers, m.mkt, m.rosterEpoch = sellers, mkt, snap.RosterEpoch
	m.refs = refs
	if snap.restored != nil {
		m.ledger = snap.restored.file
	}
	if err := m.publishView(nil); err != nil {
		return fmt.Errorf("pool: snapshot state rejected: %w", err)
	}
	return nil
}

// Save persists the market's snapshot to path: the JSON is written to a
// temp file in the same directory, synced, and renamed over the target, so
// a crash mid-save never corrupts an existing snapshot. The ledger is read
// back from the trade history under the market's write lock.
func (m *Market) Save(path string) error {
	m.writeMu.Lock()
	defer m.writeMu.Unlock()
	return m.writeHistoryLocked(path, false)
}

// snapshotPath is the market's snapshot file path under the pool's
// snapshot directory.
func (m *Market) snapshotPath() string {
	return filepath.Join(m.p.snapshotDir, m.id+snapshotExt)
}

// saveLocked persists the market under the pool's snapshot directory with
// writeMu already held — the fallback for a mutation the WAL cannot take.
// Failures log — a committed mutation must not be reported failed because
// the disk was.
func (m *Market) saveLocked() {
	if err := m.writeHistoryLocked(m.snapshotPath(), true); err != nil {
		m.p.logf("pool: market %q: saving snapshot: %v", m.id, err)
	}
}

// writeHistoryLocked writes the market's full snapshot to path, the ledger
// and cost log read back from the trade history (writeMu held). With own
// set, path is the market's snapshot file: its size feeds the compaction
// trigger, and the file becomes the generation every round lies in — the
// refs are rebuilt into it, the previous generation's handle is closed,
// and a view of the new one is published.
func (m *Market) writeHistoryLocked(path string, own bool) error {
	snap := m.snapshotLocked()
	h := m.historyLocked()
	var refs []TradeRef
	var lf *ledgerFile
	n, f, err := writeAtomic(path, own, func(w *bufio.Writer) error {
		var err error
		refs, lf, err = h.encodeSnapshot(w, snap)
		return err
	})
	if err != nil || !own {
		return err
	}
	m.snapBytes = n
	if lf == nil {
		f.Close()
		return nil
	}
	lf.f = f
	old := m.ledger
	m.refs, m.ledger = refs, lf
	m.histGen++
	if err := m.publishView(nil); err != nil {
		m.p.logf("pool: market %q: view rebuild after a snapshot: %v", m.id, err)
	}
	// Only now that the new generation's view is out: a read that fails on
	// the closed file finds it and retries there.
	if old != nil {
		old.f.Close()
	}
	return nil
}

// writeSnapshotFile atomically and durably writes snap as it stands, its
// ledger (if any) included, and returns the file's size.
func writeSnapshotFile(path string, snap *MarketSnapshot) (int64, error) {
	n, _, err := writeAtomic(path, false, func(w *bufio.Writer) error {
		return json.NewEncoder(w).Encode(snap)
	})
	return n, err
}

// writeAtomic atomically and durably writes one snapshot file: write fills
// a temp file in path's directory through a buffer, and the temp file is
// fsynced, renamed over path, and the directory fsynced. It returns the
// file's size and, with keep, the file, open for reading. The directory
// fsync makes the rename durable before the caller acts on it, such as
// truncating the log the snapshot covers.
func writeAtomic(path string, keep bool, write func(*bufio.Writer) error) (int64, *os.File, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".share-snapshot-*")
	if err != nil {
		return 0, nil, fmt.Errorf("pool: creating snapshot temp file: %w", err)
	}
	tmpName := tmp.Name()
	// Any failure from here on removes the temp file; the target is only
	// ever replaced by a complete, synced rename.
	var n int64
	bw := bufio.NewWriter(tmp)
	if err = write(bw); err == nil {
		err = bw.Flush()
	}
	if err == nil {
		n, err = tmp.Seek(0, io.SeekCurrent)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if !keep {
		if cerr := tmp.Close(); err == nil {
			err = cerr
		}
		tmp = nil
	}
	renamed := false
	if err != nil {
		err = fmt.Errorf("pool: writing snapshot: %w", err)
	} else if err = os.Rename(tmpName, path); err != nil {
		err = fmt.Errorf("pool: publishing snapshot: %w", err)
	} else {
		renamed = true
		if err = syncDir(dir); err != nil {
			err = fmt.Errorf("pool: syncing snapshot directory: %w", err)
		}
	}
	if err != nil {
		if tmp != nil {
			tmp.Close()
		}
		if !renamed {
			os.Remove(tmpName)
		}
		return 0, nil, err
	}
	return n, tmp, nil
}

// syncDir fsyncs a directory, making the names created or renamed in it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadSnapshotFile loads one snapshot file written by Save or SaveAll, in
// this layout or an older one, and is the one reader of older layouts: the
// returned snapshot always has a Spec. A file without one — the
// single-market server's, or a pool file written before snapshots stored
// the spec — kept its settings at top level under the spec's own names:
// solver, seed, durability, and a non-zero ε budget with its composition
// ("" is basic there). They make a partial spec; a setting the file leaves
// unset, or the retired "snapshot" durability, stays unset, so the
// restoring pool or the market it holds supplies it.
func ReadSnapshotFile(path string) (*MarketSnapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("pool: reading snapshot: %w", err)
	}
	var file struct {
		MarketSnapshot
		Spec // the top-level settings of an older layout
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		return nil, fmt.Errorf("pool: decoding snapshot %s: %w", path, err)
	}
	snap, old := &file.MarketSnapshot, file.Spec
	if snap.Spec == nil {
		spec := Spec{Solver: old.Solver, Seed: old.Seed}
		if old.Durability != "snapshot" {
			spec.Durability = old.Durability
		}
		if old.EpsilonBudget != nil && *old.EpsilonBudget != 0 {
			spec.EpsilonBudget, spec.Composition = old.EpsilonBudget, cmp.Or(old.Composition, string(budget.Basic))
		}
		snap.Spec = &spec
	}
	return snap, nil
}

// SaveAll persists every hosted market under the snapshot directory (the
// SIGTERM hook). Each market's snapshot and WAL truncation happen under
// one write-lock hold, so a trade committed mid-SaveAll is captured by
// either its snapshot or its (untruncated) log, never lost. Markets are
// saved in ID order; the first error aborts.
func (p *Pool) SaveAll() error {
	if p.snapshotDir == "" {
		return errors.New("pool: no snapshot directory configured")
	}
	if err := os.MkdirAll(p.snapshotDir, 0o755); err != nil {
		return fmt.Errorf("pool: creating snapshot directory: %w", err)
	}
	p.mu.RLock()
	ids := make([]string, 0, len(p.markets))
	byID := make(map[string]*Market, len(p.markets))
	for id, m := range p.markets {
		ids = append(ids, id)
		byID[id] = m
	}
	p.mu.RUnlock()
	sort.Strings(ids)
	for _, id := range ids {
		if err := byID[id].checkpoint(); err != nil {
			return fmt.Errorf("pool: saving market %q: %w", id, err)
		}
	}
	return nil
}

// RestoreAll rebuilds markets from every *.json snapshot and *.wal segment
// under the snapshot directory (the boot hook). A market's newest snapshot
// restores first, then the WAL tail past the snapshot's watermark replays
// on top — so trades committed after the last compaction or checkpoint
// survive a crash. A market with a WAL segment but no snapshot (crashed
// before its first compaction) rebuilds from the log alone. A file that
// fails to decode or replay is skipped with a logged warning; the
// remaining markets still restore. Returns the restored IDs in directory
// order.
//
// Each market is built once, from its stored spec, and enters the pool only
// once its state is loaded (restoreOne). A market the pool already holds
// under that ID (the server pre-creates its default market) is replaced
// when it is still fresh, and the restore of that ID is skipped otherwise.
// A replaced market's pointer goes stale: it keeps its empty state and
// refuses writes with ErrMarketClosed, and Get returns the restored market.
//
// Stored seller rows whose width differs from the test set are the
// exception: earlier releases admitted them, so the files are intact state
// this release refuses, and a skipped market's next write would overwrite
// them. RestoreAll still restores every other market, then returns an
// error naming each such market and its files; the caller must not serve.
//
// Restoring attaches every market's segment, creating the ones absent, and
// RestoreAll then syncs the directory once so each created name is durable
// before the first record lands in it.
//
// Call RestoreAll before serving traffic: a market that appends to its WAL
// segment before RestoreAll reaches it treats the segment's contents as
// orphaned and truncates them, and a request that resolved a held market
// before its replacement writes into the stale one.
func (p *Pool) RestoreAll() ([]string, error) {
	if p.snapshotDir == "" {
		return nil, errors.New("pool: no snapshot directory configured")
	}
	entries, err := os.ReadDir(p.snapshotDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil // first boot: nothing to restore
		}
		return nil, fmt.Errorf("pool: reading snapshot directory: %w", err)
	}
	type files struct {
		snap string
		wal  string
	}
	var ids []string
	byID := make(map[string]*files)
	note := func(id, path string, isWal bool) {
		f := byID[id]
		if f == nil {
			f = &files{}
			byID[id] = f
			ids = append(ids, id)
		}
		if isWal {
			f.wal = path
		} else {
			f.snap = path
		}
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || strings.HasPrefix(name, ".") {
			continue
		}
		path := filepath.Join(p.snapshotDir, name)
		switch {
		case strings.HasSuffix(name, snapshotExt):
			note(strings.TrimSuffix(name, snapshotExt), path, false)
		case strings.HasSuffix(name, walExt):
			note(strings.TrimSuffix(name, walExt), path, true)
		}
	}
	var restored []string
	var refused []error
	for _, id := range ids {
		f := byID[id]
		if err := p.restoreOne(id, f.snap); err != nil {
			var we *widthError
			if errors.As(err, &we) {
				refused = append(refused, fmt.Errorf(
					"pool: market %q cannot be restored: %w; move its %s and %s files out of %s to start without it",
					id, err, id+snapshotExt, id+walExt, p.snapshotDir))
				continue
			}
			path := f.snap
			if path == "" {
				path = f.wal
			}
			p.logf("pool: skipping snapshot %s: %v", path, err)
			continue
		}
		restored = append(restored, id)
	}
	if len(restored) > 0 {
		if err := syncDir(p.snapshotDir); err != nil {
			p.logf("pool: syncing snapshot directory after restore: %v", err)
		}
	}
	return restored, errors.Join(refused...)
}

// restoreOne builds one market from its snapshot file and/or WAL segment
// and then puts it in the pool. build — Create's validation and
// constructor — makes the market from the stored spec (ReadSnapshotFile's
// partial spec for an older file, an empty one for a market whose log is
// its only file), and the market loads its roster, budget accounts, inner
// market and log tail while no other code can reach it. A fresh market the pool holds under id supplies
// the admission settings and every setting the spec leaves unset, and is
// replaced; without one, unset settings take the pool defaults. A held
// market that has changed its roster or opened its log stays, and the
// restore is refused.
func (p *Pool) restoreOne(id, snapPath string) (err error) {
	var snap *MarketSnapshot
	var snapBytes int64
	var spec Spec
	if snapPath != "" {
		if snap, err = ReadSnapshotFile(snapPath); err != nil {
			return err
		}
		if snap.Market != nil {
			if err = snap.locateLedger(snapPath); err != nil {
				return err
			}
			// The ledger's file stays open for the history; a refused
			// restore closes it.
			led := snap.restored
			defer func() {
				if err != nil {
					led.file.f.Close()
				}
			}()
		}
		fi, err := os.Stat(snapPath)
		if err != nil {
			return fmt.Errorf("pool: reading snapshot: %w", err)
		}
		snapBytes, spec = fi.Size(), *snap.Spec
	}
	spec.ID = id
	held, _ := p.Get(id) // nil when the pool holds no market under id
	if held != nil {
		held.writeMu.Lock()
		fresh := held.rosterEpoch == 0 && held.log == nil
		held.writeMu.Unlock()
		if !fresh {
			return fmt.Errorf("pool: market %q already holds state; refusing to restore over it", id)
		}
		spec = spec.over(held.spec())
	}
	m, err := p.build(spec)
	if err != nil {
		return err
	}
	var walFloor uint64
	if snap != nil {
		if err := m.RestoreSnapshot(snap); err != nil {
			return err
		}
		walFloor = snap.WalSeq
	}
	// Attach the WAL — replaying its tail when a segment exists, creating
	// an empty one otherwise — so the restored market appends where the
	// crashed process stopped.
	if err := m.attachLogReplay(walFloor, snapBytes); err != nil {
		return err
	}
	if err := p.add(m, held); err != nil {
		m.closeLog()
		return err
	}
	if held != nil {
		held.close(ErrMarketClosed)
	}
	return nil
}
