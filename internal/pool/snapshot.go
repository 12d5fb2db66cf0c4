package pool

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"share/internal/budget"
	"share/internal/dataset"
	"share/internal/market"
	"share/internal/solve"
	"share/internal/stat"
)

// MarketSnapshot is the crash-safe persisted state of one market: the full
// seller roster (the market.Snapshot alone deliberately omits seller data —
// the pool owns the registrations, so it persists them) plus the market's
// learned weights, ledger and cost log. A market restored from a snapshot
// quotes and trades exactly as the one that saved it.
//
// The format is a strict superset of the single-market server's historical
// snapshot file (version 1): the ID, Solver and Seed fields are omitted by
// old writers and optional for readers, so every pre-pool snapshot still
// restores.
type MarketSnapshot struct {
	// Version guards the wire format.
	Version int `json:"version"`
	// ID names the market the snapshot belongs to ("" in legacy
	// single-market files).
	ID string `json:"id,omitempty"`
	// Solver names the market's default equilibrium backend ("" keeps the
	// restoring market's default).
	Solver string `json:"solver,omitempty"`
	// Seed pins the market seed (nil keeps the restoring market's seed).
	Seed *int64 `json:"seed,omitempty"`
	// Durability names the market's persistence mode ("" — including every
	// pre-WAL file — keeps the restoring pool's default).
	Durability string `json:"durability,omitempty"`
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
	// EpsilonBudget and Composition carry the market's privacy-budget
	// configuration (0/"" — including every pre-budget file — disables,
	// or keeps the restoring market's configuration).
	EpsilonBudget float64 `json:"epsilon_budget,omitempty"`
	Composition   string  `json:"composition,omitempty"`
	// Spec is the market's resolved spec, every field explicit: a restore
	// creates the market from it whole, whatever the restoring pool's
	// defaults. nil in files written before snapshots stored it; those
	// restore by the fields above, each one absent meaning the pool
	// default.
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

// Snapshot captures the market's full persistent state. It takes the
// market's write lock, so the snapshot is consistent with respect to
// concurrent trades.
func (m *Market) Snapshot() *MarketSnapshot {
	m.writeMu.Lock()
	defer m.writeMu.Unlock()
	return m.snapshotLocked()
}

// specSnapshot is the roster-free head of every snapshot: the market's
// identity and its resolved spec, every field explicit so Create rebuilds
// the market from it whatever the pool's defaults. On its own it is the
// spec snapshot written beside a new WAL segment.
func (m *Market) specSnapshot() *MarketSnapshot {
	seed, conc, queue, eps := m.seed, cap(m.adm.slots), m.adm.queueCap, m.epsBudget
	return &MarketSnapshot{
		Version:       snapshotVersion,
		ID:            m.id,
		Solver:        m.solver.Name(),
		Seed:          &seed,
		Durability:    string(m.durability),
		EpsilonBudget: eps,
		Composition:   m.compositionName(),
		Spec: &Spec{
			Solver:           m.solver.Name(),
			Seed:             &seed,
			Durability:       string(m.durability),
			TradeConcurrency: &conc,
			TradeQueue:       &queue,
			EpsilonBudget:    &eps,
			Composition:      string(m.composition),
		},
	}
}

// snapshotLocked is Snapshot with writeMu already held. The sellers' rows
// are views over their datasets, their headers in one block for the whole
// roster.
func (m *Market) snapshotLocked() *MarketSnapshot {
	snap := m.specSnapshot()
	if m.log != nil {
		snap.WalSeq = m.log.LastSeq()
	}
	snap.RosterEpoch = m.rosterEpoch
	if m.ledger != nil {
		snap.BudgetAccounts = m.ledger.Accounts()
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

// RestoreSnapshot loads a snapshot into a fresh market (no registrations,
// no trades). The roster is re-registered from the stored data and, when
// the snapshot was trading, the inner market is rebuilt with its weights,
// ledger and cost log. A stored seed different from the market's rebuilds
// the market's test set and sampling stream so post-restore behavior
// matches the saving process, not the restoring one.
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
	if snap.Seed != nil && *snap.Seed != m.seed {
		m.seed = *snap.Seed
		m.cfg.Seed = *snap.Seed
		m.cfg.TestSet = dataset.SyntheticCCPP(m.p.testRows, stat.NewRand(*snap.Seed+7))
	}
	if snap.Solver != "" && snap.Solver != m.solver.Name() {
		// Legacy files never carry Solver, so this only fires for
		// pool-written snapshots, whose backend was validated at save time.
		b, err := solve.Lookup(snap.Solver)
		if err != nil {
			return fmt.Errorf("pool: restoring solver: %w", err)
		}
		m.solver = b
		m.cfg.Solver = b
	}
	if snap.Durability != "" {
		// Same rule as Solver: legacy files never carry Durability, so a
		// bare file keeps the restoring pool's default.
		d, err := ParseDurability(snap.Durability)
		if err != nil {
			return fmt.Errorf("pool: restoring durability: %w", err)
		}
		m.durability = d
	}
	if snap.EpsilonBudget != 0 || snap.Spec != nil {
		// Budget config follows the Solver/Durability rule (absent keeps
		// the restoring market's configuration), except that a file with a
		// stored spec names it even when it is zero: disabled. The ledger
		// itself is rebuilt before the inner market so trades wire to it,
		// and the saved accounts restore the composed spend exactly.
		var led *budget.Ledger
		comp := m.composition
		if snap.EpsilonBudget != 0 {
			var err error
			if comp, err = budget.ParseComposition(snap.Composition); err != nil {
				return fmt.Errorf("pool: restoring composition: %w", err)
			}
			if led, err = budget.NewLedger(budget.Config{Epsilon: snap.EpsilonBudget, Composition: comp}); err != nil {
				return fmt.Errorf("pool: restoring privacy budget: %w", err)
			}
			if m.exhaustedC == nil {
				m.exhaustedC = m.p.metrics.Counter("market/" + m.id + "/budget_exhausted")
			}
		}
		m.ledger, m.epsBudget, m.composition, m.cfg.Budget = led, snap.EpsilonBudget, comp, led
	}
	if m.ledger != nil {
		m.ledger.Restore(snap.BudgetAccounts)
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
	if snap.Market != nil {
		var err error
		mkt, err = market.New(sellers, m.cfg)
		if err != nil {
			return fmt.Errorf("pool: rebuilding market from snapshot: %w", err)
		}
		if err := mkt.Restore(snap.Market); err != nil {
			return err
		}
	}
	m.sellers = sellers
	m.mkt = mkt
	m.rosterEpoch = snap.RosterEpoch
	if mkt != nil && snap.Market != nil && snap.Market.Epoch != snap.RosterEpoch {
		// Pool and market snapshots are written together, so their epochs
		// agree for every pool-written file; legacy files carry neither
		// (both read back 0). A mismatch means the file pair was spliced.
		m.sellers, m.mkt, m.rosterEpoch = nil, nil, 0
		return fmt.Errorf("pool: snapshot state rejected: %w", &market.RosterError{Msg: fmt.Sprintf(
			"market snapshot at epoch %d, pool snapshot at epoch %d", snap.Market.Epoch, snap.RosterEpoch)})
	}
	if err := m.publishView(); err != nil {
		m.sellers, m.mkt, m.rosterEpoch = nil, nil, 0
		return fmt.Errorf("pool: snapshot state rejected: %w", err)
	}
	return nil
}

// Save persists the market's snapshot to path: the JSON is written to a
// temp file in the same directory, synced, and renamed over the target, so
// a crash mid-save never corrupts an existing snapshot.
func (m *Market) Save(path string) error {
	_, err := writeSnapshotFile(path, m.Snapshot())
	return err
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
	if err := m.writeSnapshotLocked(m.snapshotLocked()); err != nil {
		m.p.logf("pool: market %q: saving snapshot: %v", m.id, err)
	}
}

// writeSnapshotLocked writes snap as the market's snapshot file and
// records its size for the compaction trigger (writeMu held).
func (m *Market) writeSnapshotLocked(snap *MarketSnapshot) error {
	n, err := writeSnapshotFile(m.snapshotPath(), snap)
	if err == nil {
		m.snapBytes = n
	}
	return err
}

// writeSnapshotFile atomically and durably writes one snapshot: temp file,
// fsync, rename, fsync of the directory. It returns the file's size. The
// snapshot is encoded as compact JSON in the encoder's pooled buffer and
// written straight through to the temp file, with no separate marshalled or
// indented copy. The directory fsync makes the rename durable before the
// caller acts on it, such as truncating the log the snapshot covers.
func writeSnapshotFile(path string, snap *MarketSnapshot) (int64, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".share-snapshot-*")
	if err != nil {
		return 0, fmt.Errorf("pool: creating snapshot temp file: %w", err)
	}
	tmpName := tmp.Name()
	// Any failure from here on removes the temp file; the target is only
	// ever replaced by a complete, synced rename.
	var n int64
	bw := bufio.NewWriter(tmp)
	if err = json.NewEncoder(bw).Encode(snap); err == nil {
		err = bw.Flush()
	}
	if err == nil {
		n, err = tmp.Seek(0, io.SeekCurrent)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("pool: writing snapshot: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("pool: publishing snapshot: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return 0, fmt.Errorf("pool: syncing snapshot directory: %w", err)
	}
	return n, nil
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

// ReadSnapshotFile loads one snapshot file written by Save or SaveAll.
func ReadSnapshotFile(path string) (*MarketSnapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("pool: reading snapshot: %w", err)
	}
	var snap MarketSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, fmt.Errorf("pool: decoding snapshot %s: %w", path, err)
	}
	if snap.Durability == "snapshot" {
		// Files written before the WAL became the only persistence path
		// may name the retired full-snapshot-per-trade mode; such a market
		// restores under the pool default.
		snap.Durability = ""
	}
	return &snap, nil
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
// remaining markets still restore. A snapshot whose market already exists
// in the pool restores into it when that market is still fresh (the server
// pre-creates its default market) and is skipped otherwise. Returns the
// restored IDs in directory order.
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
// orphaned and truncates them.
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

// restoreOne loads one market from its snapshot file and/or WAL segment,
// creating the market if it does not exist yet. A half-created market is
// torn down on failure.
func (p *Pool) restoreOne(id, snapPath string) error {
	var snap *MarketSnapshot
	var snapBytes int64
	if snapPath != "" {
		var err error
		snap, err = ReadSnapshotFile(snapPath)
		if err != nil {
			return err
		}
		fi, err := os.Stat(snapPath)
		if err != nil {
			return fmt.Errorf("pool: reading snapshot: %w", err)
		}
		snapBytes = fi.Size()
	}
	m, getErr := p.Get(id)
	created := false
	if getErr != nil {
		spec := Spec{ID: id}
		switch {
		case snap == nil:
		case snap.Spec != nil:
			spec = *snap.Spec // the resolved spec, whole
			spec.ID = id
		default:
			// Written before snapshots stored the spec: the fields it names
			// apply, and every other one takes the pool default.
			spec.Solver = snap.Solver
			spec.Seed = snap.Seed
			spec.Durability = snap.Durability
			if snap.EpsilonBudget != 0 {
				eb := snap.EpsilonBudget
				spec.EpsilonBudget = &eb
				spec.Composition = snap.Composition
			}
		}
		var err error
		m, err = p.Create(spec)
		if err != nil {
			return err
		}
		created = true
	}
	teardown := func(err error) error {
		if created {
			p.mu.Lock()
			delete(p.markets, id)
			p.mu.Unlock()
		}
		return err
	}
	var walFloor uint64
	if snap != nil {
		if err := m.RestoreSnapshot(snap); err != nil {
			return teardown(err)
		}
		walFloor = snap.WalSeq
	}
	// Attach the WAL — replaying its tail when a segment exists, creating
	// an empty one otherwise — so the restored market appends where the
	// crashed process stopped. With no snapshot, the whole market rebuilds
	// from the log, which requires a fresh target.
	if err := m.attachLogReplay(walFloor, snapBytes, snap == nil); err != nil {
		return teardown(err)
	}
	return nil
}
