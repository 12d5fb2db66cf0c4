package pool

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"share/internal/budget"
	"share/internal/core"
	"share/internal/dataset"
	"share/internal/market"
	"share/internal/obs"
	"share/internal/parallel"
	"share/internal/product"
	"share/internal/solve"
	"share/internal/stat"
	"share/internal/translog"
	"share/internal/wal"
)

// Market is one hosted market: an independent broker with its own seller
// roster, weight trajectory, ledger and solver default.
//
// Locking: writeMu serializes the mutating operations (registration,
// trades, snapshot save/restore) of THIS market only. Read paths — View,
// Quote, QuoteBatch and their Into forms, Info — never take it; they load
// the atomically published View. stateMu guards only the admission gate
// (closed flag + in-flight counter) used by Delete's drain.
type Market struct {
	id     string
	p      *Pool
	seed   int64
	solver solve.Backend

	stateMu  sync.Mutex
	closeErr error         // nil while open; the begin-rejection reason once closing
	closing  chan struct{} // closed (once) alongside closeErr being set
	inFlight sync.WaitGroup

	// adm is the trade-admission gate: a slot semaphore bounding in-flight
	// rounds plus a bounded waiting room. Quotes are never gated.
	adm *gate

	writeMu sync.Mutex
	view    atomic.Pointer[View]
	cfg     market.Config
	sellers []*market.Seller // guarded by writeMu
	mkt     *market.Market   // guarded by writeMu

	// rosterEpoch counts every roster mutation over the market's life —
	// pre-trade registrations as well as mid-life joins and leaves — and
	// mirrors the inner market's epoch once trading has begun. Guarded by
	// writeMu; the published View carries the epoch it was built at.
	rosterEpoch uint64

	// Event fan-out for the streaming API: subscribers receive roster and
	// weight events after each committed mutation. subMu guards the map;
	// emit never blocks (slow subscribers drop events).
	subMu   sync.Mutex
	subs    map[int]chan Event
	nextSub int

	// durability selects the persistence mode; log is the market's WAL
	// segment, opened lazily at the first persisted mutation (or attached
	// with replay at restore). Both guarded by writeMu; the commit wait
	// itself happens outside the lock so fsyncs overlap the next round.
	durability Durability
	log        *wal.Log

	// ledger is the market's per-seller privacy-budget ledger (nil when
	// budgeting is disabled). The inner market charges it at trade commit
	// and again when it replays the trade record, which carries the
	// charges; top-ups are budget_charge WAL records, and snapshots carry
	// the accounts. Guarded by writeMu like the rest of the trading state;
	// epsBudget and composition are immutable after creation.
	ledger      *budget.Ledger
	epsBudget   float64
	composition budget.Composition

	quoteObs  *obs.Endpoint // per-market equilibrium-quote latency
	tradeObs  *obs.Endpoint // per-market full-round latency
	reprepObs *obs.Endpoint // incremental re-preparation latency on churn

	rosterGauge *obs.Gauge   // current roster size
	subGauge    *obs.Gauge   // live stream subscribers
	exhaustedC  *obs.Counter // trades refused on budget exhaustion (nil without a ledger)

	// epsGauges holds each seller's ε-spent gauge by seller ID, looked up
	// once per seller rather than by name on every publish. Guarded by
	// writeMu; nil until the first publish with a ledger.
	epsGauges map[string]*obs.Gauge
}

// View is an immutable snapshot of everything a market's read paths serve.
// Writers build a fresh View under writeMu and publish it atomically;
// nothing reachable from a published View is ever mutated.
type View struct {
	// Protos holds one solver prototype per registered backend (nil until
	// the first seller registers), every one bound to the same validated,
	// precomputed game over the current sellers and weights: once trading
	// has begun, the inner market's committed game itself. Quotes solve the
	// requested backend's prototype with SolveFor, which never writes to
	// it, so every concurrent quote shares it without a copy. Readers may
	// SolveFor and Clone a prototype, never SetBuyer, Solve or Reprepare it.
	Protos map[string]solve.Prepared
	// Sellers is the roster with current weights.
	Sellers []SellerState
	// Weights is the broker's weight vector, shared with the prototypes'
	// game (uniform length-1 placeholder while the roster is empty,
	// matching the single-market server). Readers must not mutate it.
	Weights []float64
	// Trades is the committed ledger. Its entries are the inner market's
	// committed transactions, shared rather than copied: they are
	// immutable, and later trades only write past the end of this slice.
	// Readers must not mutate them.
	Trades []*market.Transaction
	// Trading reports whether the first round has executed (the point past
	// which roster changes go through the churn path instead of plain
	// registration).
	Trading bool
	// Epoch is the roster epoch the view was published at.
	Epoch uint64
}

// SellerState is one roster entry of a View. The budget fields are zero
// when the market has no privacy-budget ledger; Discount is the similarity
// factor applied to the seller's payout in the last committed round (1 when
// discounting is enabled but no round has priced the seller yet, 0 when
// discounting is disabled).
type SellerState struct {
	ID       string
	Lambda   float64
	Rows     int
	Weight   float64
	Budget   float64
	Spent    float64
	Discount float64
}

// Registration is a seller joining a market. Exactly one of Rows/Targets
// or SyntheticRows must supply data.
type Registration struct {
	ID            string
	Lambda        float64
	Rows          [][]float64
	Targets       []float64
	SyntheticRows int
}

// BatchDemand is one entry of a batch quote: a validated buyer plus the
// requested solver backend ("" → the market's default).
type BatchDemand struct {
	Buyer  core.Buyer
	Solver string
}

// newMarket builds an empty market with a published empty view. The
// market's synthetic test set derives from its seed exactly as the
// single-market server's did, so the pool's default market is
// bit-compatible with the pre-pool service.
func (p *Pool) newMarket(id string, backend solve.Backend, seed int64, durability Durability, concurrency, queue int, epsBudget float64, composition budget.Composition) *Market {
	var ledger *budget.Ledger
	if epsBudget > 0 {
		l, err := budget.NewLedger(budget.Config{Epsilon: epsBudget, Composition: composition})
		if err != nil {
			// Create validated the config; this is unreachable short of a
			// programming error, and disabling beats refusing the market.
			p.logf("pool: market %q: budget ledger: %v; disabling budgets", id, err)
			epsBudget = 0
		} else {
			ledger = l
		}
	}
	m := &Market{
		id:          id,
		p:           p,
		seed:        seed,
		solver:      backend,
		closing:     make(chan struct{}),
		adm:         newGate(p.metrics, id, concurrency, queue),
		durability:  durability,
		ledger:      ledger,
		epsBudget:   epsBudget,
		composition: composition,
		cfg: market.Config{
			Cost:     p.cost,
			TestSet:  dataset.SyntheticCCPP(p.testRows, stat.NewRand(seed+7)),
			Update:   p.update,
			Solver:   backend,
			Seed:     seed,
			Budget:   ledger,
			Discount: p.discount,
		},
		quoteObs:    p.metrics.Endpoint("market/" + id + "/quote"),
		tradeObs:    p.metrics.Endpoint("market/" + id + "/trade"),
		reprepObs:   p.metrics.Endpoint("market/" + id + "/reprepare"),
		rosterGauge: p.metrics.Gauge("market/" + id + "/roster_size"),
		subGauge:    p.metrics.Gauge("market/" + id + "/stream_subscribers"),
		subs:        make(map[int]chan Event),
	}
	if ledger != nil {
		m.exhaustedC = p.metrics.Counter("market/" + id + "/budget_exhausted")
	}
	m.view.Store(&View{Weights: core.UniformWeights(1)})
	return m
}

// ID returns the market's pool-unique name.
func (m *Market) ID() string { return m.id }

// Seed returns the market's random seed.
func (m *Market) Seed() int64 { return m.seed }

// Solver names the market's default equilibrium backend.
func (m *Market) Solver() string { return m.solver.Name() }

// TestSet exposes the market's held-out scoring dataset (the reference
// data product builders calibrate against).
func (m *Market) TestSet() *dataset.Dataset { return m.cfg.TestSet }

// View returns the current immutable market view.
func (m *Market) View() *View { return m.view.Load() }

// Info summarizes the market from its lock-free view.
func (m *Market) Info() Info {
	v := m.view.Load()
	return Info{
		ID:               m.id,
		Solver:           m.solver.Name(),
		Seed:             m.seed,
		Durability:       string(m.durability),
		TradeConcurrency: cap(m.adm.slots),
		TradeQueue:       m.adm.queueCap,
		Sellers:          len(v.Sellers),
		Trades:           len(v.Trades),
		Trading:          v.Trading,
		RosterEpoch:      v.Epoch,
		EpsilonBudget:    m.epsBudget,
		Composition:      m.compositionName(),
	}
}

// compositionName reports the market's ε-composition rule, empty when
// budgeting is disabled (so Info and snapshots omit it).
func (m *Market) compositionName() string {
	if m.ledger == nil {
		return ""
	}
	return string(m.composition)
}

// Durability reports the market's persistence mode.
func (m *Market) Durability() Durability { return m.durability }

// close marks the market as draining with the given begin-rejection
// reason (ErrMarketClosed for a Delete, ErrDraining for pool shutdown) and
// wakes every trade parked in the admission queue. The first reason wins.
func (m *Market) close(reason error) {
	m.stateMu.Lock()
	if m.closeErr == nil {
		m.closeErr = reason
		close(m.closing)
	}
	m.stateMu.Unlock()
}

// closeReason reports why the market is draining (nil while open).
func (m *Market) closeReason() error {
	m.stateMu.Lock()
	defer m.stateMu.Unlock()
	return m.closeErr
}

// begin admits one mutating operation, failing once the market is
// draining. The paired end releases the drain counter.
func (m *Market) begin() error {
	m.stateMu.Lock()
	defer m.stateMu.Unlock()
	if m.closeErr != nil {
		return fmt.Errorf("market %q: %w", m.id, m.closeErr)
	}
	m.inFlight.Add(1)
	return nil
}

func (m *Market) end() { m.inFlight.Done() }

// RegisterSeller admits a seller, before the first trade or mid-life. The
// returned state carries the seller's materialized row count and, for a
// mid-life join, the weight she was admitted at (pre-trade rosters start
// uniform). With WAL persistence on, the admission is logged and its
// durability barrier awaited before returning.
func (m *Market) RegisterSeller(reg Registration) (SellerState, error) {
	if err := m.begin(); err != nil {
		return SellerState{}, err
	}
	defer m.end()
	st, l, seq, err := m.registerLocked(reg)
	if err != nil {
		return SellerState{}, err
	}
	m.commitWal(l, seq)
	return st, nil
}

// registerLocked is RegisterSeller's write-lock section: admission checks,
// roster append (or mid-life join through the inner market's incremental
// churn path), view publication and the WAL append.
func (m *Market) registerLocked(reg Registration) (SellerState, *wal.Log, uint64, error) {
	m.writeMu.Lock()
	defer m.writeMu.Unlock()
	if reg.ID == "" {
		return SellerState{}, nil, 0, &FieldError{Field: "id", Msg: "seller id is required"}
	}
	for _, existing := range m.sellers {
		if existing.ID == reg.ID {
			return SellerState{}, nil, 0, fmt.Errorf("seller %q: %w", reg.ID, ErrSellerExists)
		}
	}
	if !(reg.Lambda > 0) {
		return SellerState{}, nil, 0, &FieldError{Field: "lambda", Msg: fmt.Sprintf("must be positive, got %g", reg.Lambda)}
	}
	data, err := m.sellerData(reg)
	if err != nil {
		return SellerState{}, nil, 0, err
	}
	sel := &market.Seller{ID: reg.ID, Lambda: reg.Lambda, Data: data}
	if m.mkt != nil {
		// Mid-life join: the inner market stages an incremental solver
		// re-preparation (rank-1 aggregate adjustment) and commits it with
		// the roster in one step; the new view binds to the re-prepared game.
		weight, err := m.mkt.AddSeller(sel)
		if err != nil {
			return SellerState{}, nil, 0, err
		}
		m.sellers = append(m.sellers, sel)
		m.rosterEpoch = m.mkt.Epoch()
		m.publishChurnView()
		l, seq := m.persistRecordLocked(recordJoin, joinRecord{
			Seller: StoredSeller{ID: reg.ID, Lambda: reg.Lambda, Rows: data.AppendRows(nil), Targets: data.Y},
			Weight: weight,
			Epoch:  m.rosterEpoch,
		})
		m.emitRoster("join", reg.ID)
		m.p.logf("pool: market %q admitted seller %q mid-life (%d rows, λ=%g, ω=%g, epoch %d)",
			m.id, reg.ID, data.Len(), reg.Lambda, weight, m.rosterEpoch)
		return SellerState{ID: reg.ID, Lambda: reg.Lambda, Rows: data.Len(), Weight: weight}, l, seq, nil
	}
	m.sellers = append(m.sellers, sel)
	m.rosterEpoch++
	if err := m.publishView(); err != nil {
		// Roll the registration back: a roster the game rejects (e.g. a
		// pathological λ passing the > 0 check but failing validation)
		// must not be half-admitted.
		m.sellers = m.sellers[:len(m.sellers)-1]
		m.rosterEpoch--
		return SellerState{}, nil, 0, &FieldError{Field: "lambda", Msg: err.Error()}
	}
	l, seq := m.persistRecordLocked(recordRegister, StoredSeller{ID: reg.ID, Lambda: reg.Lambda, Rows: data.AppendRows(nil), Targets: data.Y})
	m.emitRoster("join", reg.ID)
	m.p.logf("pool: market %q registered seller %q (%d rows, λ=%g)", m.id, reg.ID, data.Len(), reg.Lambda)
	return SellerState{ID: reg.ID, Lambda: reg.Lambda, Rows: data.Len()}, l, seq, nil
}

// MaxSyntheticRows caps Registration.SyntheticRows. Minting costs memory
// linear in the count, so an uncapped count in a 50-byte request could
// exhaust the server; the cap sits well above the paper's scaled corpus
// (10,000 rows per seller).
const MaxSyntheticRows = 100_000

// sellerData materializes a registration's dataset: inline rows converted
// and checked by storedData, or a synthetic CCPP-like set — the test set's
// schema — minted from the market seed and roster position (identical to
// the single-market server's demo path).
func (m *Market) sellerData(reg Registration) (*dataset.Dataset, error) {
	switch {
	case reg.SyntheticRows > 0 && reg.Rows != nil:
		return nil, &FieldError{Field: "synthetic_rows", Msg: "provide either inline rows or synthetic_rows, not both"}
	case reg.SyntheticRows > MaxSyntheticRows:
		return nil, &FieldError{Field: "synthetic_rows", Msg: fmt.Sprintf("at most %d rows, got %d", MaxSyntheticRows, reg.SyntheticRows)}
	case reg.SyntheticRows > 0:
		return dataset.SyntheticCCPP(reg.SyntheticRows, stat.NewRand(m.cfg.Seed+int64(len(m.sellers)))), nil
	case len(reg.Rows) > 0:
		if len(reg.Rows) != len(reg.Targets) {
			return nil, &FieldError{Field: "targets", Msg: fmt.Sprintf("%d rows but %d targets", len(reg.Rows), len(reg.Targets))}
		}
		d, err := m.storedData(reg.Rows, reg.Targets)
		if err != nil {
			return nil, &FieldError{Field: "rows", Msg: err.Error()}
		}
		return d, nil
	default:
		return nil, &FieldError{Field: "rows", Msg: "seller data required: inline rows or synthetic_rows"}
	}
}

// resolveProto maps a requested solver name onto the view's prepared
// prototype, defaulting to the market's own backend.
func (m *Market) resolveProto(v *View, requested string) (string, solve.Prepared, error) {
	name := requested
	if name == "" {
		name = m.solver.Name()
	}
	proto, ok := v.Protos[name]
	if !ok {
		if _, err := solve.Lookup(name); err != nil {
			return name, nil, &FieldError{Field: "solver", Msg: err.Error()}
		}
		return name, nil, fmt.Errorf("market %q: %w", m.id, ErrNoSellers)
	}
	return name, proto, nil
}

// QuoteInto solves the game for one buyer against the published view into
// dst — no locks, so quotes stay responsive while a trade holds the write
// path, and no copy of the view's prototype: dst's vectors are reused, so a
// warm dst quotes the closed-form backends without allocating. The returned
// name is the backend that actually solved.
func (m *Market) QuoteInto(ctx context.Context, b core.Buyer, solverName string, dst *core.Profile) (string, error) {
	name, d, err := m.solveQuote(ctx, m.view.Load(), b, solverName, dst)
	if err != nil {
		return name, err
	}
	m.quoteObs.Observe(d)
	return name, nil
}

// Quote is QuoteInto into a fresh profile.
func (m *Market) Quote(ctx context.Context, b core.Buyer, solverName string) (*core.Profile, string, error) {
	prof := new(core.Profile)
	name, err := m.QuoteInto(ctx, b, solverName, prof)
	if err != nil {
		return nil, name, err
	}
	return prof, name, nil
}

// QuoteBatchInto solves many demands concurrently against ONE consistent
// view snapshot, fanned across the pool's shared worker budget: demand i is
// solved into dst[i] and its backend named in names[i] (both must hold
// len(demands) entries). Each index owns its slots, so the batch is
// byte-identical for every worker count. A failing demand fails the batch
// with a BatchError naming the lowest failing index (quotes have no side
// effects, so the all-or-nothing contract is cheap and keeps the error
// deterministic); the other slots are then unspecified.
func (m *Market) QuoteBatchInto(ctx context.Context, demands []BatchDemand, dst []core.Profile, names []string) error {
	v := m.view.Load()
	t0 := time.Now()
	var mu sync.Mutex
	var firstErr *BatchError
	parallel.For(m.p.workers, len(demands), func(i int) {
		var err error
		names[i], _, err = m.solveQuote(ctx, v, demands[i].Buyer, demands[i].Solver, &dst[i])
		if err != nil {
			mu.Lock()
			if firstErr == nil || i < firstErr.Index {
				firstErr = &BatchError{Index: i, Err: err}
			}
			mu.Unlock()
		}
	})
	if firstErr != nil {
		return firstErr
	}
	m.quoteObs.Observe(time.Since(t0))
	return nil
}

// QuoteBatch is QuoteBatchInto into fresh profiles.
func (m *Market) QuoteBatch(ctx context.Context, demands []BatchDemand) ([]*core.Profile, []string, error) {
	profiles := make([]core.Profile, len(demands))
	names := make([]string, len(demands))
	if err := m.QuoteBatchInto(ctx, demands, profiles, names); err != nil {
		return nil, nil, err
	}
	out := make([]*core.Profile, len(profiles))
	for i := range profiles {
		out[i] = &profiles[i]
	}
	return out, names, nil
}

// solveQuote resolves the requested backend on view v and solves b into dst
// against its shared prototype, recording the solve under its backend's
// latency series and a general solve's effort under solve/general/*.
func (m *Market) solveQuote(ctx context.Context, v *View, b core.Buyer, solverName string, dst *core.Profile) (string, time.Duration, error) {
	name, proto, err := m.resolveProto(v, solverName)
	if err != nil {
		return name, 0, err
	}
	t0 := time.Now()
	err = proto.SolveFor(ctx, b, dst)
	if err == nil {
		err = dst.CheckFinite()
	}
	if err != nil {
		return name, 0, err
	}
	d := time.Since(t0)
	if ep := m.p.solveObs[name]; ep != nil {
		ep.Observe(d)
	}
	m.p.observeStage3(dst.Effort)
	return name, d, nil
}

// Trade runs one full round of Algorithm 1 for the buyer, with this
// market's write path held for the solve and commit. builder nil means the
// market's configured product; backend nil means the market's default
// solver. On success the new view is published and, with persistence on,
// the trade is made durable per the market's mode: a WAL record appended
// under the lock and committed after it is released — so the fsync of this
// trade overlaps the next round's solve, and concurrent commits share one
// group-commit barrier. A failed write logs and never fails the committed
// trade.
//
// Admission: before touching the write path the trade passes the market's
// gate — a bounded concurrency limit plus a bounded waiting room — so a
// saturating flood is rejected with ErrOverloaded (wrapped in an
// *OverloadError carrying a Retry-After estimate) instead of queueing
// unboundedly on writeMu. The slot is released after the write lock is
// dropped but before the commit wait, preserving the fsync/next-solve
// overlap group commit batches on — and on every exit from the round,
// a panicking one included, so a failed round never wedges the gate.
func (m *Market) Trade(ctx context.Context, b core.Buyer, builder product.Builder, backend solve.Backend) (*market.Transaction, error) {
	if err := m.begin(); err != nil {
		return nil, err
	}
	defer m.end()
	release, err := m.acquireTrade(ctx)
	if err != nil {
		return nil, err
	}
	tx, l, seq, err := m.tradeLocked(ctx, release, b, builder, backend)
	if err != nil {
		var ee *budget.ExhaustedError
		if m.exhaustedC != nil && errors.As(err, &ee) {
			m.exhaustedC.Add(1)
		}
		return nil, err
	}
	m.commitWal(l, seq)
	return tx, nil
}

// tradeLocked is Trade's write-lock section: the round itself, view
// publication, metrics and the WAL append (or snapshot fallback). It calls
// release, the admission slot's, once the write lock is dropped, however
// the section ends.
func (m *Market) tradeLocked(ctx context.Context, release func(), b core.Buyer, builder product.Builder, backend solve.Backend) (*market.Transaction, *wal.Log, uint64, error) {
	defer release()
	m.writeMu.Lock()
	defer m.writeMu.Unlock()
	if m.mkt == nil {
		if len(m.sellers) == 0 {
			return nil, nil, 0, fmt.Errorf("market %q: %w", m.id, ErrNoSellers)
		}
		mkt, err := market.New(m.sellers, m.cfg)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("market %q: building market: %w", m.id, err)
		}
		mkt.SetEpoch(m.rosterEpoch)
		m.mkt = mkt
	}
	if m.p.tradeTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, m.p.tradeTimeout)
		defer cancel()
	}
	start := time.Now()
	tx, err := m.mkt.RunRoundBackend(ctx, b, builder, backend)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := m.publishView(); err != nil {
		return nil, nil, 0, fmt.Errorf("market %q: republishing view: %w", m.id, err)
	}
	if tx.Timings.WeightUpdate > 0 {
		m.p.valuation.Observe(tx.Timings.WeightUpdate)
	}
	if ep := m.p.solveObs[tx.Solver]; ep != nil {
		ep.Observe(tx.Timings.Strategy)
	}
	m.p.observeStage3(tx.SolveEffort)
	m.tradeObs.Observe(time.Since(start))
	m.emitWeights(tx)
	obs := translog.Observation{N: b.N, V: b.V, Cost: tx.ManufacturingCost}
	l, seq := m.persistRecordLocked(recordTrade, tradeRecord{Tx: tx, Obs: obs})
	m.p.logf("pool: market %q trade %d executed (p^M=%g, p^D=%g, EV=%.4f)",
		m.id, tx.Round, tx.Profile.PM, tx.Profile.PD, tx.Metrics.Performance)
	return tx, l, seq, nil
}

// buildView renders the market's mutable state into a fresh immutable
// view. Must be called with writeMu held. Every backend binds one game:
// once trading has begun the inner market's committed game, whose weight
// vector the view shares; before that a game over the registered roster at
// uniform weights, precomputed here. Only that precompute can fail.
func (m *Market) buildView() (*View, error) {
	v := &View{Trading: m.mkt != nil, Epoch: m.rosterEpoch}
	var g *core.Game
	switch {
	case m.mkt != nil:
		g = m.mkt.Prototype().Game()
		v.Trades = m.mkt.SharedLedger()
	case len(m.sellers) > 0:
		lambdas := make([]float64, len(m.sellers))
		for i, sel := range m.sellers {
			lambdas[i] = sel.Lambda
		}
		g = &core.Game{
			Buyer:   core.PaperBuyer(), // placeholder; quotes solve their own buyer
			Broker:  core.Broker{Cost: m.cfg.Cost, Weights: core.UniformWeights(len(lambdas))},
			Sellers: core.Sellers{Lambda: lambdas},
		}
		if err := g.Precompute(); err != nil {
			return nil, err
		}
	}
	if g == nil {
		v.Weights = core.UniformWeights(1)
	} else {
		w := g.Broker.Weights
		v.Weights = w[:len(w):len(w)] // an append by a reader copies
		v.Protos = make(map[string]solve.Prepared, len(m.p.backends))
		for _, b := range m.p.backends {
			v.Protos[b.Name()] = b.Bind(g)
		}
	}
	v.Sellers = m.sellerStates(v.Weights, v.Trades)
	return v, nil
}

// sellerStates renders the roster into view entries, folding in each
// seller's budget state and the similarity discount of the last committed
// round (writeMu held). trades is the ledger the view will carry — the
// last transaction's Discounts apply only while it matches the current
// roster (same epoch, same length); after churn the factors are stale and
// the sellers reset to the no-discount 1 until the next round prices them.
func (m *Market) sellerStates(weights []float64, trades []*market.Transaction) []SellerState {
	var discounts []float64
	if m.cfg.Discount != nil && len(trades) > 0 {
		if last := trades[len(trades)-1]; last.Epoch == m.rosterEpoch && len(last.Discounts) == len(m.sellers) {
			discounts = last.Discounts
		}
	}
	out := make([]SellerState, len(m.sellers))
	for i, sel := range m.sellers {
		st := SellerState{ID: sel.ID, Lambda: sel.Lambda, Rows: sel.Data.Len(), Weight: weights[i]}
		if m.ledger != nil {
			st.Budget = m.ledger.Budget(sel.ID)
			st.Spent = m.ledger.Spent(sel.ID)
		}
		if m.cfg.Discount != nil {
			st.Discount = 1
			if discounts != nil {
				st.Discount = discounts[i]
			}
		}
		out[i] = st
	}
	return out
}

// publishView renders and atomically publishes a new view. Must be called
// with writeMu held.
func (m *Market) publishView() error {
	v, err := m.buildView()
	if err != nil {
		return err
	}
	m.view.Store(v)
	m.rosterGauge.Set(int64(len(v.Sellers)))
	m.updateBudgetGauges(v)
	return nil
}

// updateBudgetGauges refreshes the per-seller ε-spent gauges (milli-ε, the
// registry is integer-valued) after a view publish (writeMu held). A no-op
// without a ledger.
func (m *Market) updateBudgetGauges(v *View) {
	if m.ledger == nil {
		return
	}
	if m.epsGauges == nil {
		m.epsGauges = make(map[string]*obs.Gauge, len(v.Sellers))
	}
	for _, s := range v.Sellers {
		g := m.epsGauges[s.ID]
		if g == nil {
			g = m.p.metrics.Gauge("market/" + m.id + "/seller/" + s.ID + "/eps_spent_milli")
			m.epsGauges[s.ID] = g
		}
		g.Set(int64(s.Spent * 1000))
	}
}

// Seller returns one roster entry by ID from the lock-free view, plus the
// roster epoch it was read at. Unknown IDs return ErrSellerNotFound.
func (m *Market) Seller(id string) (SellerState, uint64, error) {
	v := m.view.Load()
	for _, s := range v.Sellers {
		if s.ID == id {
			return s, v.Epoch, nil
		}
	}
	return SellerState{}, v.Epoch, fmt.Errorf("seller %q: %w", id, ErrSellerNotFound)
}

// TopUpBudget raises one seller's privacy budget by add (ε). The grant is
// persisted as a budget_charge WAL record — it must survive a reboot with
// the same exactness as the charges the trade records carry — and the
// refreshed view is published before returning. Markets without a ledger
// refuse with a field-level error; unknown sellers with ErrSellerNotFound.
func (m *Market) TopUpBudget(id string, add float64) (SellerState, error) {
	if err := m.begin(); err != nil {
		return SellerState{}, err
	}
	defer m.end()
	st, l, seq, err := m.topUpLocked(id, add)
	if err != nil {
		return SellerState{}, err
	}
	m.commitWal(l, seq)
	return st, nil
}

// topUpLocked is TopUpBudget's write-lock section.
func (m *Market) topUpLocked(id string, add float64) (SellerState, *wal.Log, uint64, error) {
	m.writeMu.Lock()
	defer m.writeMu.Unlock()
	if m.ledger == nil {
		return SellerState{}, nil, 0, &FieldError{Field: "add", Msg: "market has no privacy budget configured"}
	}
	found := false
	for _, sel := range m.sellers {
		if sel.ID == id {
			found = true
			break
		}
	}
	if !found {
		return SellerState{}, nil, 0, fmt.Errorf("seller %q: %w", id, ErrSellerNotFound)
	}
	if _, err := m.ledger.TopUp(id, add); err != nil {
		return SellerState{}, nil, 0, &FieldError{Field: "add", Msg: err.Error()}
	}
	if err := m.publishView(); err != nil {
		m.p.logf("pool: market %q: view rebuild after top-up for %q: %v", m.id, id, err)
	}
	l, seq := m.persistRecordLocked(recordBudget, budgetRecord{
		Epoch:       m.rosterEpoch,
		TopUpSeller: id,
		TopUpAmount: add,
	})
	m.p.logf("pool: market %q: seller %q budget topped up by ε=%g (total %g)", m.id, id, add, m.ledger.Budget(id))
	st, _, err := m.Seller(id)
	return st, l, seq, err
}
