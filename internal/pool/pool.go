// Package pool hosts many named Stackelberg-Nash markets in one process —
// the multi-tenant core behind the service's /v2 resource API. The paper
// frames the broker as an intermediary serving many concurrent buyer
// demands over seller populations (§4, Algorithm 1); a Pool realizes that
// at the process level: each market is an independent broker with its own
// seller roster, weight trajectory, ledger and equilibrium solver default,
// while all markets share one worker budget, one metrics registry and one
// snapshot directory.
//
// Concurrency model (per market, inherited from the single-market server):
// reads are lock-free against an immutable copy-on-write View; trades and
// registrations serialize behind the market's own write mutex. Markets
// never share locks — a round wedged in market A cannot delay a quote or a
// trade in market B. The pool-level mutex guards only the name→market map
// and is held for map operations alone, never across a solve or a round.
//
// Lifecycle: Create admits a market under a validated ID; Delete unlinks it
// (new requests stop routing immediately) and then drains in-flight rounds
// under the caller's context. With a snapshot directory configured, every
// market appends each mutation to its write-ahead log <dir>/<id>.wal and
// compacts the log into <dir>/<id>.json (write temp, fsync, rename, fsync
// the directory) on SaveAll (shutdown) and whenever the log has grown as
// large as that snapshot, and at least 4 MiB: so a market's total snapshot
// output stays within about twice its log bytes however long its history.
// RestoreAll rebuilds every market from both on boot, decoding each part
// of the history once — the snapshot, then the log records past it — and a
// corrupt file is skipped with a logged warning, never fatal.
package pool

import (
	"context"
	"fmt"
	"hash/fnv"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"share/internal/budget"
	"share/internal/core"
	"share/internal/market"
	"share/internal/obs"
	"share/internal/solve"
	"share/internal/translog"
	"share/internal/wal"
)

// Options configure a Pool; they are the template every hosted market is
// built from.
type Options struct {
	// Cost is the brokers' translog cost model (nil: paper defaults).
	Cost *translog.Params
	// TestRows sizes each market's held-out synthetic test set (0 → 500).
	TestRows int
	// Update configures Shapley weight refreshing (nil → the paper's
	// ω' = 0.2ω + 0.8·SV with 20 permutations).
	Update *market.WeightUpdate
	// Workers is the shared worker budget: it caps the Shapley valuation
	// pool per trade and the fan-out of each batch quote (0 keeps the
	// Update's own setting for valuation and means GOMAXPROCS for batches).
	Workers int
	// Solver names the default equilibrium backend for new markets
	// ("" → analytic). Unknown names fall back to the default with a log
	// line, mirroring the server's historical behavior.
	Solver string
	// Seed is the base seed; each market derives its own from it unless a
	// Spec pins one explicitly.
	Seed int64
	// TradeTimeout bounds one trading round beyond the caller's context
	// (0 → none).
	TradeTimeout time.Duration
	// TradeConcurrency caps in-flight trades per market (0 →
	// DefaultTradeConcurrency; values < 1 are clamped to 1). Markets may
	// override it at creation via Spec.TradeConcurrency.
	TradeConcurrency int
	// TradeQueue sizes each market's trade waiting room (0 →
	// DefaultTradeQueue; negative → no waiting room, reject the moment
	// every slot is busy). Arrivals past the queue fail with ErrOverloaded.
	// Markets may override it at creation via Spec.TradeQueue.
	TradeQueue int
	// SnapshotDir enables per-market persistence under this directory
	// ("" → disabled).
	SnapshotDir string
	// Durability is the default WAL commit mode for new markets: "sync"
	// (per-commit fsync), "group" (batched fsync, the default) or "async"
	// (background flush). Unknown names fall back to the default with a log
	// line, mirroring Solver.
	Durability string
	// EpsilonBudget is the default per-seller privacy budget (total ε a
	// seller's data may absorb across rounds) for new markets. 0 disables
	// budgeting; markets may override it at creation via
	// Spec.EpsilonBudget. Invalid values fall back to disabled with a log
	// line, mirroring Solver.
	EpsilonBudget float64
	// Composition selects how per-round ε charges compose into a seller's
	// spent total for new markets: "basic" (plain sum, the default) or
	// "advanced" (the strong-composition bound). Unknown names fall back
	// to basic with a log line.
	Composition string
	// DiscountFactor enables similarity-aware pricing: the maximum
	// fraction shaved off a fully redundant seller's Shapley payout
	// (0 disables, must be ≤ 1). Invalid values fall back to disabled
	// with a log line.
	DiscountFactor float64
	// DiscountThreshold is the pairwise-redundancy level below which no
	// discount applies (default 0 discounts any redundancy; must be < 1).
	DiscountThreshold float64
	// Metrics receives per-market and per-backend latency series (nil → a
	// private registry).
	Metrics *obs.Registry
	// Logf receives pool-level log lines (nil → log.Printf).
	Logf func(format string, args ...any)
}

// Pool hosts a set of named markets. Safe for concurrent use.
type Pool struct {
	cost         translog.Params
	testRows     int
	update       *market.WeightUpdate
	workers      int
	solver       solve.Backend
	seed         int64
	tradeTimeout time.Duration
	snapshotDir  string
	durability   Durability
	logf         func(format string, args ...any)

	// compactFloor is the smallest segment a market compacts
	// (compactFloorBytes; in-package tests lower it).
	compactFloor int64
	tradeConc    int
	tradeQueue   int
	epsBudget    float64
	composition  budget.Composition
	discount     *market.DiscountConfig

	metrics   *obs.Registry
	valuation *obs.Endpoint            // Shapley weight-update latency, all markets
	solveObs  map[string]*obs.Endpoint // per-backend equilibrium-solve latency
	backends  []solve.Backend          // every registered backend, bound by each view
	walMet    wal.Metrics              // shared WAL series, all markets

	// Per-stage effort series of the general backend's numerical cascade,
	// fed from Profile.Effort after each general solve: time spent in
	// Stage-3 inner Nash solves, and cumulative solve/sweep/memo counters.
	stage3Obs    *obs.Endpoint
	stage3Solves *obs.Counter
	stage3Sweeps *obs.Counter
	stage3Memo   *obs.Counter

	mu       sync.RWMutex
	markets  map[string]*Market
	draining bool // set by Drain/Close; Create refuses with ErrDraining
}

// Spec names and configures one market to create. Snapshots store a
// market's resolved spec — every field set, zeros included — under the
// JSON names below, and a restore builds the market from it. Older
// snapshots kept their settings at top level under the same names, which
// is how ReadSnapshotFile reads them, so the names must not change.
type Spec struct {
	// ID is the market's name: 1–64 characters from [A-Za-z0-9._-],
	// starting with a letter or digit (it doubles as the snapshot file
	// stem and the metric-label segment). A stored spec leaves it to the
	// snapshot's own id.
	ID string `json:"-"`
	// Solver overrides the pool's default equilibrium backend for this
	// market ("" → pool default). Unknown names are a field-level error.
	Solver string `json:"solver"`
	// Seed pins the market's random seed (nil → derived deterministically
	// from the pool seed and the ID).
	Seed *int64 `json:"seed"`
	// Durability overrides the pool's default persistence mode for this
	// market ("" → pool default). Unknown names are a field-level error.
	Durability string `json:"durability"`
	// TradeConcurrency overrides the pool's in-flight trade cap for this
	// market (nil → pool default; values < 1 are a field-level error).
	TradeConcurrency *int `json:"trade_concurrency"`
	// TradeQueue overrides the pool's trade waiting-room size for this
	// market (nil → pool default). An explicit 0 means no waiting room —
	// reject the moment every slot is busy; negative values are a
	// field-level error.
	TradeQueue *int `json:"trade_queue"`
	// EpsilonBudget overrides the pool's default per-seller privacy
	// budget for this market (nil → pool default; explicit 0 disables
	// budgeting; negative or non-finite values are a field-level error).
	EpsilonBudget *float64 `json:"epsilon_budget"`
	// Composition overrides the pool's ε-composition rule for this market
	// ("" → pool default). Unknown names are a field-level error.
	Composition string `json:"composition"`
}

// Info is the externally visible state of one hosted market.
type Info struct {
	ID               string `json:"id"`
	Solver           string `json:"solver"`
	Seed             int64  `json:"seed"`
	Durability       string `json:"durability"`
	TradeConcurrency int    `json:"trade_concurrency"`
	TradeQueue       int    `json:"trade_queue"`
	Sellers          int    `json:"sellers"`
	Trades           int    `json:"trades"`
	Trading          bool   `json:"trading"`
	RosterEpoch      uint64 `json:"roster_epoch"`
	// EpsilonBudget and Composition describe the market's per-seller
	// privacy-budget configuration; both are zero-valued (and omitted on
	// the wire) when budgeting is disabled.
	EpsilonBudget float64 `json:"epsilon_budget,omitempty"`
	Composition   string  `json:"composition,omitempty"`
}

// New builds an empty pool. An unknown Options.Solver falls back to the
// analytic default with a logged warning (CLI entry points validate the
// flag before getting here).
func New(opts Options) *Pool {
	logf := opts.Logf
	if logf == nil {
		logf = log.Printf
	}
	cost := translog.PaperDefaults()
	if opts.Cost != nil {
		cost = *opts.Cost
	}
	testRows := opts.TestRows
	if testRows <= 0 {
		testRows = 500
	}
	upd := opts.Update
	if upd == nil {
		upd = &market.WeightUpdate{Retain: 0.2, Permutations: 20, TruncateTol: 0.005}
	}
	if opts.Workers != 0 {
		u := *upd // don't mutate the caller's struct
		u.Workers = opts.Workers
		upd = &u
	}
	backend, err := solve.Lookup(opts.Solver)
	if err != nil {
		logf("pool: %v; falling back to %q", err, solve.DefaultName)
		backend, _ = solve.Lookup(solve.DefaultName)
	}
	durability, err := ParseDurability(opts.Durability)
	if err != nil {
		logf("pool: %v; falling back to %q", err, DurGroup)
		durability = DurGroup
	}
	tradeConc := opts.TradeConcurrency
	if tradeConc == 0 {
		tradeConc = DefaultTradeConcurrency
	}
	if tradeConc < 1 {
		tradeConc = 1
	}
	tradeQueue := opts.TradeQueue
	if tradeQueue == 0 {
		tradeQueue = DefaultTradeQueue
	}
	if tradeQueue < 0 {
		tradeQueue = 0
	}
	composition, err := budget.ParseComposition(opts.Composition)
	if err != nil {
		logf("pool: %v; falling back to %q composition", err, budget.Basic)
		composition = budget.Basic
	}
	epsBudget := opts.EpsilonBudget
	if epsBudget != 0 {
		if err := (budget.Config{Epsilon: epsBudget, Composition: composition}).Validate(); err != nil {
			logf("pool: default epsilon budget: %v; disabling budgets", err)
			epsBudget = 0
		}
	}
	var discount *market.DiscountConfig
	if opts.DiscountFactor != 0 {
		d := &market.DiscountConfig{Factor: opts.DiscountFactor, Threshold: opts.DiscountThreshold}
		if err := d.Validate(); err != nil {
			logf("pool: similarity discount: %v; disabling discounts", err)
		} else {
			discount = d
		}
	}
	metrics := opts.Metrics
	if metrics == nil {
		metrics = obs.NewRegistry()
	}
	p := &Pool{
		cost:         cost,
		testRows:     testRows,
		update:       upd,
		workers:      opts.Workers,
		solver:       backend,
		seed:         opts.Seed,
		tradeTimeout: opts.TradeTimeout,
		snapshotDir:  opts.SnapshotDir,
		durability:   durability,
		compactFloor: compactFloorBytes,
		tradeConc:    tradeConc,
		tradeQueue:   tradeQueue,
		epsBudget:    epsBudget,
		composition:  composition,
		discount:     discount,
		logf:         logf,
		metrics:      metrics,
		valuation:    metrics.Endpoint("trade/valuation"),
		solveObs:     make(map[string]*obs.Endpoint, len(solve.Names())),
		stage3Obs:    metrics.Endpoint("solve/general/stage3"),
		stage3Solves: metrics.Counter("solve/general/stage3_solves"),
		stage3Sweeps: metrics.Counter("solve/general/stage3_sweeps"),
		stage3Memo:   metrics.Counter("solve/general/memo_hits"),
		walMet: wal.Metrics{
			Fsync:    metrics.Endpoint("wal/fsync"),
			Fsyncs:   metrics.Counter("wal/fsyncs"),
			Records:  metrics.Counter("wal/records"),
			Bytes:    metrics.Counter("wal/bytes"),
			BatchMax: metrics.Gauge("wal/batch_max"),
		},
		markets: make(map[string]*Market),
	}
	for _, name := range solve.Names() {
		b, _ := solve.Lookup(name) // registered, so found
		p.backends = append(p.backends, b)
		p.solveObs[name] = p.metrics.Endpoint("solve/" + name)
	}
	return p
}

// Metrics exposes the registry the pool's markets report into.
func (p *Pool) Metrics() *obs.Registry { return p.metrics }

// observeStage3 folds one general solve's per-stage effort counters into
// the pool's solve/general/* series. Closed-form backends report nothing
// (nil, or Stage3Solves == 0) and are skipped.
func (p *Pool) observeStage3(st *core.GeneralStats) {
	if st == nil || st.Stage3Solves <= 0 {
		return
	}
	p.stage3Obs.Observe(st.Stage3Time)
	p.stage3Solves.Add(uint64(st.Stage3Solves))
	p.stage3Sweeps.Add(uint64(st.Stage3Sweeps))
	p.stage3Memo.Add(uint64(st.MemoHits))
}

// ValidateID checks that id is usable as a market name, snapshot file stem
// and metric-label segment.
func ValidateID(id string) error {
	if id == "" {
		return &FieldError{Field: "id", Msg: "market id is required"}
	}
	if len(id) > 64 {
		return &FieldError{Field: "id", Msg: fmt.Sprintf("market id exceeds 64 characters (%d)", len(id))}
	}
	for i, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case i > 0 && (r == '.' || r == '_' || r == '-'):
		default:
			return &FieldError{Field: "id", Msg: fmt.Sprintf(
				"market id must match [A-Za-z0-9][A-Za-z0-9._-]*, got %q", id)}
		}
	}
	return nil
}

// deriveSeed maps a market ID onto a deterministic per-market seed so a
// recreated market (same pool seed, same ID) replays the same synthetic
// test set and data sampling.
func (p *Pool) deriveSeed(id string) int64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return p.seed + int64(h.Sum64()&0x7fffffff)
}

// Create admits a new empty market under spec.ID.
func (p *Pool) Create(spec Spec) (*Market, error) {
	m, err := p.build(spec)
	if err != nil {
		return nil, err
	}
	if err := p.add(m, nil); err != nil {
		return nil, err
	}
	return m, nil
}

// add puts m in the pool in place of old, the market the pool holds under
// m's ID (nil: the ID must be free). From then on m's view publications
// set its gauges, which add sets now from the current view.
func (p *Pool) add(m, old *Market) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.draining {
		return fmt.Errorf("market %q: %w", m.id, ErrDraining)
	}
	if p.markets[m.id] != old {
		return fmt.Errorf("market %q: %w", m.id, ErrMarketExists)
	}
	m.writeMu.Lock() // never waits: no other code can reach m yet
	m.pooled = true
	m.setGauges(m.view.Load())
	m.writeMu.Unlock()
	p.markets[m.id] = m
	return nil
}

// Get returns the named market or ErrMarketNotFound.
func (p *Pool) Get(id string) (*Market, error) {
	p.mu.RLock()
	m := p.markets[id]
	p.mu.RUnlock()
	if m == nil {
		return nil, fmt.Errorf("market %q: %w", id, ErrMarketNotFound)
	}
	return m, nil
}

// List reports every hosted market, sorted by ID.
func (p *Pool) List() []Info {
	p.mu.RLock()
	ms := make([]*Market, 0, len(p.markets))
	for _, m := range p.markets {
		ms = append(ms, m)
	}
	p.mu.RUnlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].id < ms[j].id })
	out := make([]Info, len(ms))
	for i, m := range ms {
		out[i] = m.Info()
	}
	return out
}

// Delete unlinks the named market — new requests stop routing to it
// immediately — then drains its in-flight rounds under ctx. When the drain
// completes (even after Delete has returned with ctx's error) the market's
// WAL segment is closed and its persisted files — snapshot and segment —
// are removed, so a later RestoreAll (or a recreated market under the same
// name) can never resurrect its state. A ctx expiry means the market is
// gone from the pool but a wedged round may still be finishing in the
// background.
func (p *Pool) Delete(ctx context.Context, id string) error {
	p.mu.Lock()
	m, ok := p.markets[id]
	if ok {
		delete(p.markets, id)
	}
	p.mu.Unlock()
	if !ok {
		return fmt.Errorf("market %q: %w", id, ErrMarketNotFound)
	}
	m.close(ErrMarketClosed)
	drained := make(chan struct{})
	go func() {
		m.inFlight.Wait()
		m.closeLog()
		p.removeSnapshot(id)
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("pool: draining market %q: %w", id, ctx.Err())
	}
}

// removeSnapshot deletes a market's persisted files — the snapshot and the
// WAL segment — if persistence is on. An orphaned segment left behind here
// would replay a dead market's trades into a recreated market of the same
// name.
func (p *Pool) removeSnapshot(id string) {
	if p.snapshotDir == "" {
		return
	}
	for _, path := range []string{
		filepath.Join(p.snapshotDir, id+snapshotExt),
		filepath.Join(p.snapshotDir, id+walExt),
	} {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			p.logf("pool: removing %s: %v", path, err)
		}
	}
}
