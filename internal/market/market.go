// Package market implements the complete data trading dynamics of
// Algorithm 1: parameter collection, strategy decision via the three-stage
// Stackelberg-Nash game, the data transaction (integer allocation, local
// differential privacy, compensations), product production (training the
// regression product, Shapley-based weight updates), and the product
// transaction — plus the multi-round loop with dummy-buyer warm-up that the
// paper uses to stabilize dataset weights before measuring (§6.1).
package market

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"share/internal/budget"
	"share/internal/core"
	"share/internal/dataset"
	"share/internal/ldp"
	"share/internal/parallel"
	"share/internal/product"
	"share/internal/regress"
	"share/internal/solve"
	"share/internal/translog"
	"share/internal/valuation"
)

// Seller is one registered data seller: her privacy sensitivity λ and her
// raw dataset Dᵢ (assumed large enough for any allocation, per the paper's
// market assumptions; RunRound degrades gracefully by sampling with
// replacement if an allocation exceeds the dataset).
type Seller struct {
	// ID labels the seller in ledgers and logs.
	ID string
	// Lambda is her privacy sensitivity λᵢ > 0.
	Lambda float64
	// Data is her raw dataset Dᵢ.
	Data *dataset.Dataset
}

// WeightUpdate configures how the broker refreshes dataset weights after
// production (§5.2 gives ω' = 0.2ω + 0.8·SV as the example rule).
type WeightUpdate struct {
	// Retain is the weight kept on the old value (paper example: 0.2).
	Retain float64
	// Permutations is the Monte Carlo permutation count for the seller
	// Shapley computation; ≤ 0 uses the paper's 100.
	Permutations int
	// TruncateTol enables truncated Monte Carlo when positive.
	TruncateTol float64
	// Workers fans the Shapley permutations out across a worker pool when
	// > 1 (0 or 1 = single-threaded). Every product's estimator seeds each
	// permutation independently, so the computed Shapley values — and
	// therefore the weight trajectory — are identical for every Workers
	// value; only wall-clock changes.
	Workers int
	// Decay pulls every post-update weight toward the uniform prior by this
	// fraction (ω″ = (1−Decay)·ω′ + Decay/m), so long-lived markets cannot
	// fossilize: a seller whose early rounds earned an extreme weight drifts
	// back toward neutral unless fresh Shapley evidence keeps it there —
	// which also bounds how stale the prior a churn joiner inherits can be.
	// Must lie in [0, 1); 0 (the default) disables the decay and reproduces
	// the paper's trajectories bit for bit.
	Decay float64
}

// Config assembles the market's fixed machinery.
type Config struct {
	// Cost is the broker's translog cost model.
	Cost translog.Params
	// Product manufactures and scores the data product each round; nil
	// defaults to the paper's OLS linear-regression product. Alternative
	// builders (product.Logistic, product.MeanVector) realize the paper's
	// "product form is not restricted" claim.
	Product product.Builder
	// Mechanism perturbs sold data under LDP; nil defaults to a Laplace
	// mechanism calibrated per-dataset from the sellers' pooled bounds.
	Mechanism ldp.Mechanism
	// TestSet scores manufactured products (clean, held-out data).
	TestSet *dataset.Dataset
	// Update configures Shapley weight refreshing; a nil Update disables
	// it (weights stay fixed — the paper's "without Shapley" efficiency
	// mode).
	Update *WeightUpdate
	// Solver selects the equilibrium backend for strategy decisions; nil
	// defaults to the analytic closed-form path. Per-round overrides go
	// through RunRoundBackend.
	Solver solve.Backend
	// Seed seeds the market's private random source.
	Seed int64
	// Budget, when non-nil, is the per-seller ε-ledger every trade charges:
	// before any record is perturbed the round's per-seller ε charges are
	// checked against the ledger, and an exhausted seller aborts the whole
	// round with a *budget.ExhaustedError — the refusal is surfaced, never
	// silently re-priced around. The market does not own the ledger's
	// persistence; the caller (internal/pool) serializes access and logs
	// committed transactions, whose replay through ApplyCommitted charges
	// the ledger again. nil disables budget accounting with a code path
	// bit-identical to a pre-budget market.
	Budget *budget.Ledger
	// Discount, when non-nil with a positive Factor, prices data similarity
	// into Shapley payouts: near-duplicate sellers (by Gram-moment
	// redundancy) have their positive Shapley values scaled down before
	// normalization. nil disables discounting with no behavioral change.
	Discount *DiscountConfig
	// NoLedger keeps no ledger or cost log: the market keeps its round
	// count, which numbers rounds and checks replay, and its last
	// transaction, and the caller keeps the history (internal/pool keeps a
	// persisted market's on disk). Ledger and CostObservations are then
	// empty, Snapshot carries neither, and a restore that reads the ledger
	// itself resumes the count with SetHistory.
	NoLedger bool
}

// DiscountConfig shapes the similarity discount d(r) applied to a seller
// with redundancy r (the max pairwise moment-cosine, valuation.Redundancy):
//
//	d(r) = 1                              for r ≤ Threshold
//	d(r) = 1 − Factor·(r−Threshold)/(1−Threshold)   otherwise
//
// so a perfect duplicate (r = 1) keeps 1−Factor of its payout and the
// discount fades linearly to nothing at the threshold.
type DiscountConfig struct {
	// Factor γ ∈ (0,1] is the payout reduction at full redundancy.
	Factor float64
	// Threshold r₀ ∈ [0,1): redundancy at or below it is never discounted.
	Threshold float64
}

// Validate reports whether the discount shape is usable.
func (dc *DiscountConfig) Validate() error {
	if !(dc.Factor > 0 && dc.Factor <= 1) {
		return fmt.Errorf("market: discount factor %g outside (0,1]", dc.Factor)
	}
	if !(dc.Threshold >= 0 && dc.Threshold < 1) {
		return fmt.Errorf("market: discount threshold %g outside [0,1)", dc.Threshold)
	}
	return nil
}

// factor evaluates d(r).
func (dc *DiscountConfig) factor(r float64) float64 {
	if r <= dc.Threshold {
		return 1
	}
	d := 1 - dc.Factor*(r-dc.Threshold)/(1-dc.Threshold)
	if d < 0 {
		d = 0
	}
	return d
}

// Market is a running data market with one broker and m registered sellers.
type Market struct {
	cost      translog.Params
	product   product.Builder
	mechanism ldp.Mechanism
	testSet   *dataset.Dataset
	// eval caches testSet's evaluation moments for the OLS valuation
	// kernel. The test set never changes, so the first OLS weight update
	// computes them for every later round.
	eval    *regress.EvalMoments
	update  *WeightUpdate
	sellers []*Seller
	backend solve.Backend
	// proto binds the backend to the committed game, the market's only
	// copy of λ and ω (see Prototype); commits and churn replace it.
	proto    solve.Prepared
	rng      *rand.Rand
	budget   *budget.Ledger
	discount *DiscountConfig

	// rounds counts the committed rounds and last is the latest committed
	// transaction (nil before the first). ledger and costLog hold every
	// round unless noLedger is set.
	rounds   int
	last     *Transaction
	noLedger bool
	ledger   []*Transaction
	costLog  []translog.Observation

	// epoch counts roster changes (seller joins and leaves) over the
	// market's life. Transactions and snapshots are stamped with it, and
	// replay validates against it, so a restored market and its WAL agree
	// on which roster every record was written under.
	epoch uint64
}

// Timings breaks a transaction's wall time into Algorithm 1's phases.
type Timings struct {
	// Strategy covers the Stackelberg-Nash solve (Lines 6–7).
	Strategy time.Duration
	// DataTransaction covers allocation, LDP and compensation (Lines 8–14).
	DataTransaction time.Duration
	// Production covers model training (Line 16).
	Production time.Duration
	// WeightUpdate covers Shapley valuation and the weight refresh
	// (Line 17); zero when updates are disabled.
	WeightUpdate time.Duration
	// Total is the whole round.
	Total time.Duration
}

// Transaction is one ledger entry: the equilibrium profile, realized
// payments, the manufactured product's metrics, and the updated weights.
//
// A committed transaction is immutable: once a round commits it the market
// never writes to it again, and Last and Snapshot hand the same pointers
// to readers (such as the pool's published views) without copying. Code
// holding a committed transaction must not mutate it or any slice, map or
// profile it references; Clone gives a private copy. Its
// JSON encoding is its record: the pool's WAL trade records and snapshot
// ledgers carry exactly these bytes, and a persisted pool market keeps
// only its last transaction in memory and reads the rest back from them.
type Transaction struct {
	// Round is the 1-based transaction index.
	Round int
	// Product names the builder that manufactured this round's product.
	Product string
	// Profile is the equilibrium strategy profile that governed the trade.
	Profile *core.Profile
	// Pieces is the integer per-seller data-piece allocation (sums to N).
	Pieces []int
	// Epsilons are the per-seller LDP budgets implied by τᵢ (Eq. 10).
	Epsilons []float64
	// Compensations are p^D·q^D_i paid to each seller.
	Compensations []float64
	// Payment is p^M·q^M paid by the buyer.
	Payment float64
	// ManufacturingCost is C(N, v) for this round.
	ManufacturingCost float64
	// Metrics scores the manufactured product on the clean test set;
	// Metrics.Performance is the realized counterpart of the demanded v.
	Metrics product.Report
	// Shapley holds the per-seller Shapley values when weight updates ran —
	// post-discount when similarity discounting is enabled (these are the
	// values the payout and weight update actually used).
	Shapley []float64
	// Discounts holds the per-seller similarity discount factors d(rᵢ)
	// applied to this round's Shapley payouts; nil when discounting is
	// disabled, so pre-discount markets serialize byte-identically.
	Discounts []float64 `json:",omitempty"`
	// BudgetSpent is each seller's composed cumulative ε after this round's
	// charges; nil when the market has no budget ledger.
	BudgetSpent []float64 `json:",omitempty"`
	// Weights is the broker's weight vector after any update.
	Weights []float64
	// Solver names the equilibrium backend that produced Profile.
	Solver string
	// Epoch is the market's roster epoch at the time of the trade — which
	// joins and leaves the transaction's per-seller slices are indexed
	// under.
	Epoch uint64 `json:",omitempty"`
	// SolveEffort carries the numerical backend's per-stage effort counters
	// (Profile.Effort of a general solve); nil for closed-form backends.
	// Consumers surface it as observability series.
	SolveEffort *core.GeneralStats
	// Timings records per-phase durations.
	Timings Timings
}

// New builds a market over the given sellers. cfg.TestSet must be
// non-empty, and every seller needs a positive λ and a non-empty dataset as
// wide as the test set; a seller failing that is refused with a
// *RosterError.
func New(sellers []*Seller, cfg Config) (*Market, error) {
	if len(sellers) == 0 {
		return nil, errors.New("market: no sellers")
	}
	if cfg.TestSet == nil || cfg.TestSet.Len() == 0 {
		return nil, errors.New("market: missing test set for product scoring")
	}
	for _, s := range sellers {
		if err := checkSeller(s, cfg.TestSet.NumFeatures()); err != nil {
			return nil, err
		}
	}
	mech := cfg.Mechanism
	if mech == nil {
		var err error
		mech, err = defaultMechanism(sellers)
		if err != nil {
			return nil, err
		}
	}
	if cfg.Update != nil {
		if cfg.Update.Retain < 0 || cfg.Update.Retain > 1 {
			return nil, fmt.Errorf("market: weight-update retain factor %g outside [0,1]", cfg.Update.Retain)
		}
		if cfg.Update.Decay < 0 || cfg.Update.Decay >= 1 {
			return nil, fmt.Errorf("market: weight-update decay factor %g outside [0,1)", cfg.Update.Decay)
		}
	}
	builder := cfg.Product
	if builder == nil {
		builder = product.OLS{}
	}
	backend := cfg.Solver
	if backend == nil {
		backend = solve.Analytic{}
	}
	discount := cfg.Discount
	if discount != nil {
		if discount.Factor == 0 {
			discount = nil // zero factor means "not configured"
		} else if err := discount.Validate(); err != nil {
			return nil, err
		}
	}
	lambdas := make([]float64, len(sellers))
	for i, s := range sellers {
		lambdas[i] = s.Lambda
	}
	m := &Market{
		cost:      cfg.Cost,
		product:   builder,
		mechanism: mech,
		testSet:   cfg.TestSet,
		update:    cfg.Update,
		sellers:   sellers,
		backend:   backend,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		budget:    cfg.Budget,
		discount:  discount,
		noLedger:  cfg.NoLedger,
	}
	proto, err := m.prototype(lambdas, core.UniformWeights(len(sellers)))
	if err != nil {
		return nil, fmt.Errorf("market: precomputing solver prototype: %w", err)
	}
	m.proto = proto
	return m, nil
}

// defaultMechanism calibrates a Laplace mechanism to the pooled bounds of
// all sellers' data, covering every attribute of the record — the features
// AND the target (a seller protecting a row protects the whole row).
func defaultMechanism(sellers []*Seller) (ldp.Mechanism, error) {
	k := sellers[0].Data.NumFeatures()
	lo := make([]float64, k+1)
	hi := make([]float64, k+1)
	first := true
	for _, s := range sellers {
		for i := range s.Data.Y {
			for j, v := range s.Data.Row(i) {
				if first || v < lo[j] {
					lo[j] = v
				}
				if first || v > hi[j] {
					hi[j] = v
				}
			}
			y := s.Data.Y[i]
			if first || y < lo[k] {
				lo[k] = y
			}
			if first || y > hi[k] {
				hi[k] = y
			}
			first = false
		}
	}
	for j := range lo {
		if !(lo[j] < hi[j]) {
			hi[j] = lo[j] + 1 // constant column: any width works
		}
	}
	b, err := ldp.NewBounds(lo, hi)
	if err != nil {
		return nil, fmt.Errorf("market: calibrating default mechanism: %w", err)
	}
	return ldp.NewLaplace(b), nil
}

// M returns the number of registered sellers.
func (m *Market) M() int { return len(m.sellers) }

// Weights returns a copy of the broker's current dataset weights.
func (m *Market) Weights() []float64 { return append([]float64(nil), m.proto.Game().Broker.Weights...) }

// SetWeights replaces the broker's weights (length must match the seller
// count and every weight must be positive). The solver prototype is staged
// against the new weights before anything is written, so a failure leaves
// the market unchanged.
func (m *Market) SetWeights(w []float64) error {
	if len(w) != len(m.sellers) {
		return fmt.Errorf("market: %d weights for %d sellers", len(w), len(m.sellers))
	}
	for i, x := range w {
		if !(x > 0) {
			return fmt.Errorf("market: weight %d must be positive, got %g", i, x)
		}
	}
	proto, err := m.prototype(m.proto.Game().Sellers.Lambda, append([]float64(nil), w...))
	if err != nil {
		return fmt.Errorf("market: precomputing solver prototype: %w", err)
	}
	m.proto = proto
	return nil
}

// Prototype returns the committed solver prototype: the market's backend
// bound to the validated, precomputed game over the current sellers and
// weights. It is shared, not copied: callers may solve it with SolveFor,
// Clone it, read its Game and Bind other backends to that game, but must
// never call SetBuyer or Solve on it or write to the game. A later round or
// roster change replaces the prototype instead of mutating it, so a game
// handed out here stays valid for as long as it is held.
func (m *Market) Prototype() solve.Prepared { return m.proto }

// Ledger returns the recorded transactions in order. Every entry is a deep
// copy: mutating the returned slice, a transaction, or any of its nested
// slices cannot corrupt the committed ledger.
func (m *Market) Ledger() []*Transaction {
	out := make([]*Transaction, len(m.ledger))
	for i, tx := range m.ledger {
		out[i] = tx.Clone()
	}
	return out
}

// Last returns the last committed transaction, shared rather than copied
// (see Transaction), or nil before the first round.
func (m *Market) Last() *Transaction { return m.last }

// SetHistory sets the round count and last transaction of a market whose
// caller keeps the ledger (Config.NoLedger) and has read them from its own
// record of the history, as a restore does. Restore sets both from a
// snapshot's ledger otherwise.
func (m *Market) SetHistory(rounds int, last *Transaction) { m.rounds, m.last = rounds, last }

// commit records a committed round: its count, the last transaction and,
// unless the caller keeps the history, the ledger and cost-log entries.
func (m *Market) commit(tx *Transaction, obs translog.Observation) {
	m.rounds++
	m.last = tx
	if !m.noLedger {
		m.ledger = append(m.ledger, tx)
		m.costLog = append(m.costLog, obs)
	}
}

// Clone returns a deep copy of the transaction: nested slices and the
// equilibrium profile are duplicated, so the copy shares no mutable state
// with the original.
func (tx *Transaction) Clone() *Transaction {
	if tx == nil {
		return nil
	}
	cp := *tx
	if tx.Profile != nil {
		p := *tx.Profile
		p.Tau = append([]float64(nil), tx.Profile.Tau...)
		p.Chi = append([]float64(nil), tx.Profile.Chi...)
		p.SellerProfits = append([]float64(nil), tx.Profile.SellerProfits...)
		if tx.Profile.Approx != nil {
			a := *tx.Profile.Approx
			p.Approx = &a
		}
		cp.Profile = &p
	}
	cp.Pieces = append([]int(nil), tx.Pieces...)
	cp.Epsilons = append([]float64(nil), tx.Epsilons...)
	cp.Compensations = append([]float64(nil), tx.Compensations...)
	cp.Shapley = append([]float64(nil), tx.Shapley...)
	cp.Discounts = append([]float64(nil), tx.Discounts...)
	cp.BudgetSpent = append([]float64(nil), tx.BudgetSpent...)
	cp.Weights = append([]float64(nil), tx.Weights...)
	if tx.Metrics.Detail != nil {
		cp.Metrics.Detail = make(map[string]float64, len(tx.Metrics.Detail))
		for k, v := range tx.Metrics.Detail {
			cp.Metrics.Detail[k] = v
		}
	}
	return &cp
}

// CostObservations returns the (N, v, cost) records accumulated across
// rounds — the raw material for refitting the broker's translog parameters
// (the parameter-fitting extension).
func (m *Market) CostObservations() []translog.Observation {
	return append([]translog.Observation(nil), m.costLog...)
}

// prototype builds the game over the given λ and weight vectors, keeping
// both without a copy (the caller hands them over, or passes the committed
// game's λ, which no game writes), precomputes it in place and binds the
// market's backend to it. New, SetWeights, every round's commit and every
// roster change prepare their game here. The game carries a placeholder
// buyer — each round solves it for its own buyer with Prepared.SolveFor —
// and the seller aggregates, so a round neither re-assembles and
// re-validates the λ and ω slices nor copies the game.
func (m *Market) prototype(lambdas, weights []float64) (solve.Prepared, error) {
	g := &core.Game{
		Buyer:   core.PaperBuyer(),
		Broker:  core.Broker{Cost: m.cost, Weights: weights},
		Sellers: core.Sellers{Lambda: lambdas},
	}
	if err := g.Precompute(); err != nil {
		return nil, err
	}
	return m.backend.Bind(g), nil
}

// RunRound executes Algorithm 1 for one buyer with the market's configured
// product and appends the transaction to the ledger.
func (m *Market) RunRound(buyer core.Buyer) (*Transaction, error) {
	return m.RunRoundWith(buyer, nil)
}

// RunRoundWith executes Algorithm 1 manufacturing this round's product with
// the given builder (nil = the market's configured product). The game and
// prices are product-agnostic; only manufacturing, scoring, and the Shapley
// weight update change. This lets one market serve regression buyers and
// aggregate-statistics buyers side by side.
func (m *Market) RunRoundWith(buyer core.Buyer, builder product.Builder) (*Transaction, error) {
	return m.RunRoundContext(context.Background(), buyer, builder)
}

// RunRoundContext is RunRoundWith under a cancellation context: ctx is
// checked at every phase boundary of Algorithm 1 and, crucially, between
// the permutations of the Shapley weight update — the phase that can run
// for minutes at large m — so a canceled or deadline-expired round returns
// promptly instead of wedging the caller. A round aborted by ctx leaves the
// market's observable state unchanged: the ledger, weights and cost log are
// only written once the whole round has succeeded (the private random
// stream does advance for work already done). Errors caused by the buyer's
// demand wrap ErrDemand; cancellation surfaces via errors.Is against
// ctx.Err().
//
// With a background context, results — including the market's rng stream —
// are bit-identical to RunRoundWith.
func (m *Market) RunRoundContext(ctx context.Context, buyer core.Buyer, builder product.Builder) (*Transaction, error) {
	return m.RunRoundBackend(ctx, buyer, builder, nil)
}

// RunRoundBackend is RunRoundContext with a per-round solver override (nil =
// the market's configured backend; matching is by backend name). The round's
// strategy decision goes through the override while the market's prototype —
// and every other round's — stays on the configured backend.
func (m *Market) RunRoundBackend(ctx context.Context, buyer core.Buyer, builder product.Builder, backend solve.Backend) (*Transaction, error) {
	if builder == nil {
		builder = m.product
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("market: round canceled before start: %w", err)
	}
	start := time.Now()

	// Strategy Decision (Lines 6–7). The prototype was assembled from the
	// market's own (validated) sellers and weights, so a solve failure
	// here — other than cancellation — is attributable to the buyer's
	// demand parameters. SolveFor never writes to the prototype, so the
	// round solves it in place, as quotes solve a view's, into the
	// transaction's own profile; an override backend binds the committed
	// game.
	t0 := time.Now()
	proto := m.proto
	if backend != nil && backend.Name() != m.backend.Name() {
		proto = backend.Bind(m.proto.Game())
	}
	profile := new(core.Profile)
	err := proto.SolveFor(ctx, buyer, profile)
	if err == nil {
		err = profile.CheckFinite()
	}
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
			return nil, fmt.Errorf("market: strategy decision canceled: %w", err)
		}
		return nil, fmt.Errorf("market: strategy decision: %w: %w", ErrDemand, err)
	}
	g := *proto.Game() // the game header carrying this round's buyer
	g.Buyer = buyer
	tx := &Transaction{
		Round:   m.rounds + 1,
		Profile: profile,
		Solver:  proto.Backend().Name(),
		Epoch:   m.epoch,
	}
	tx.Timings.Strategy = time.Since(t0)
	if st := profile.Effort; st != nil && st.Stage3Solves > 0 {
		tx.SolveEffort = st
	}

	// Data Transaction (Lines 8–14).
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("market: round canceled before data transaction: %w", err)
	}
	t0 = time.Now()
	n, err := salePieces(buyer.N)
	if err != nil {
		return nil, err
	}
	sc := roundScratches.Get()
	defer sc.release()
	tx.Pieces = make([]int, m.M())
	sc.rems = allocatePieces(tx.Pieces, profile.Chi, n, sc.rems)
	tx.Epsilons = make([]float64, m.M())
	for i := range m.sellers {
		tx.Epsilons[i] = ldp.EpsilonForFidelity(profile.Tau[i])
	}
	// Budget admission: the round's per-seller ε charges are checked before
	// any record is perturbed, so a refused round has spent nothing — no
	// privacy, no rng draws, no ledger writes. Exhaustion excludes the
	// seller by aborting the round with the typed error; the caller decides
	// whether to retry without the seller, top up, or surface the refusal.
	// The charges are derived from Pieces, as replay derives them: sellData
	// perturbs exactly Pieces[i] records of seller i, so they are the LDP
	// applications the round runs, and the commit charges them unchanged.
	var chargeIDs []string
	var chargeEps []float64
	if m.budget != nil {
		chargeIDs, chargeEps = sc.charges(m.sellers, tx.Epsilons, tx.Pieces)
		if err := m.budget.Check(chargeIDs, chargeEps); err != nil {
			return nil, fmt.Errorf("market: data transaction: %w", err)
		}
	}
	tx.Compensations = make([]float64, m.M())
	sc.reserve(m.sellers, tx.Pieces)
	for i, s := range m.sellers {
		sc.chunks[i] = m.sellData(sc, s, tx.Pieces[i], tx.Epsilons[i])
		sc.parts[i] = &sc.chunks[i]
		qi := profile.Chi[i] * profile.Tau[i]
		tx.Compensations[i] = profile.PD * qi
	}
	chunks := sc.parts
	tx.Timings.DataTransaction = time.Since(t0)

	// Product Production (Line 16).
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("market: round canceled before production: %w", err)
	}
	t0 = time.Now()
	metrics, err := builder.Build(sc.joined(), m.testSet)
	if err != nil {
		return nil, fmt.Errorf("market: manufacturing %s product: %w", builder.Name(), err)
	}
	tx.Metrics = metrics
	tx.Product = builder.Name()
	tx.ManufacturingCost = g.ManufacturingCost()
	tx.Timings.Production = time.Since(t0)

	// Weight update via Shapley (Line 17). The new weights are staged and
	// only applied on success, keeping aborted rounds side-effect free.
	var newWeights []float64
	if m.update != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("market: round canceled before weight update: %w", err)
		}
		t0 = time.Now()
		// Estimator dispatch by product: OLS goes through the moment-cached
		// kernel (per-chunk Gram statistics + fused test-set evaluation);
		// opaque builders retrain per prefix. Both run one seeded fan-out
		// whose permutations derive from the round index, so Shapley values
		// are identical for every Workers setting and never draw from m.rng.
		var sv, red []float64
		var err error
		workers := m.update.Workers
		if workers < 1 {
			workers = 1
		}
		seed := int64(tx.Round) * 1_000_003
		_, isOLS := builder.(product.OLS)
		if isOLS && m.eval == nil {
			if m.eval, err = regress.NewEvalMoments(m.testSet); err != nil {
				return nil, fmt.Errorf("market: Shapley weight update: caching test-set moments: %w", err)
			}
		}
		switch {
		case !isOLS:
			sv, err = valuation.SellerShapleyBuilderParallelCtx(ctx, chunks, m.testSet, builder,
				m.update.Permutations, m.update.TruncateTol, seed, workers)
		case m.discount != nil:
			// Redundancy rides on the Gram statistics the kernel caches
			// anyway — no extra pass over seller data.
			sv, red, err = valuation.SellerShapleyKernelRedundancyCtx(ctx, chunks, m.eval,
				m.update.Permutations, m.update.TruncateTol, seed, workers)
		default:
			sv, err = valuation.SellerShapleyKernelCtx(ctx, chunks, m.eval,
				m.update.Permutations, m.update.TruncateTol, seed, workers)
		}
		if err != nil {
			return nil, fmt.Errorf("market: Shapley weight update: %w", err)
		}
		// Similarity-aware acquisition: near-duplicate sellers' positive
		// Shapley payouts shrink by d(rᵢ) before normalization, so the
		// freed weight mass flows to sellers with novel data. Negative
		// values are left alone — shrinking a penalty would reward
		// redundancy. The per-seller factor is exposed on the transaction.
		if m.discount != nil {
			if red == nil {
				red = valuation.DatasetRedundancy(chunks)
			}
			tx.Discounts = make([]float64, len(sv))
			for i := range sv {
				d := m.discount.factor(red[i])
				tx.Discounts[i] = d
				if sv[i] > 0 {
					sv[i] *= d
				}
			}
		}
		tx.Shapley = sv
		weights := m.proto.Game().Broker.Weights
		newWeights = make([]float64, len(weights))
		valuation.Normalize(newWeights, sv)
		for i, w := range weights {
			newWeights[i] = m.update.Retain*w + (1-m.update.Retain)*newWeights[i]
		}
		if d := m.update.Decay; d > 0 {
			uniform := 1 / float64(len(newWeights))
			for i := range newWeights {
				newWeights[i] = (1-d)*newWeights[i] + d*uniform
			}
		}
		tx.Timings.WeightUpdate = time.Since(t0)
	}

	// Commit: every fallible phase is done, so the round's state changes
	// land together — a round that errored or was canceled above has
	// written nothing. The solver prototype for the new weights is staged
	// first: if the updated weights fail precompute validation, the round
	// fails cleanly with the market untouched.
	if newWeights != nil {
		newProto, err := m.prototype(m.proto.Game().Sellers.Lambda, newWeights)
		if err != nil {
			return nil, fmt.Errorf("market: weight update produced an unsolvable market: %w", err)
		}
		m.proto = newProto
	}
	// The committed game's weight vector is never written, so the
	// transaction shares it, capped so an append by a reader copies.
	w := m.proto.Game().Broker.Weights
	tx.Weights = w[:len(w):len(w)]
	// The privacy ledger charges at commit time with the rest of the
	// round's state: a round that errored or was canceled after admission
	// never consumed budget. Nothing since admission has called charges,
	// so its slices still hold the checked charges.
	if m.budget != nil {
		m.budget.Charge(chargeIDs, chargeEps)
		tx.BudgetSpent = make([]float64, m.M())
		for i, s := range m.sellers {
			tx.BudgetSpent[i] = m.budget.Spent(s.ID)
		}
	}

	// Product Transaction (Line 19).
	tx.Payment = profile.PM * profile.QM
	tx.Timings.Total = time.Since(start)
	m.commit(tx, translog.Observation{N: buyer.N, V: buyer.V, Cost: tx.ManufacturingCost})
	return tx, nil
}

// roundScratch is one round's working memory for the data transaction and
// production: the sampling permutation, the record buffer each sold row is
// perturbed in, every seller's perturbed features in one row-major block
// and their targets, the per-seller chunk datasets over those blocks, and
// the budget ledger's argument buffers. A round takes a scratch from
// roundScratches and releases it when it ends, so only the committed
// Transaction outlives the round and a market holds no scratch between
// rounds. Nothing a round keeps may alias its scratch:
// the chunk datasets and the manufacturing set never leave the round.
// Between Get and release a scratch belongs to the goroutine running the
// round; rounds on different markets share the list.
type roundScratch struct {
	rems   []remainder // the allocation's largest-remainder pass
	perm   []int       // sampling permutation (without replacement)
	idx    []int       // sampled row indices (with replacement)
	record []float64   // one record, features then target, perturbed in place
	x      []float64   // the round's features in seller order, row-major
	y      []float64   // targets, one per record
	chunks []dataset.Dataset
	parts  []*dataset.Dataset // &chunks[i], the estimators' view
	all    dataset.Dataset    // the manufacturing set, over x and y
	ids    []string
	eps    []float64
}

var roundScratches parallel.FreeList[roundScratch]

// release returns the scratch to roundScratches.
func (sc *roundScratch) release() {
	bytes := 8 * (cap(sc.record) + cap(sc.x) + cap(sc.y) + cap(sc.perm) + cap(sc.idx) + 2*cap(sc.rems))
	roundScratches.Put(sc, bytes)
}

// resize returns s with length n, reusing its backing array when it has the
// capacity. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reserve empties the scratch and sizes it for one round's sales, so the
// appends in sellData never move a row: every chunk's view stays valid and
// the chunks stay contiguous.
func (sc *roundScratch) reserve(sellers []*Seller, pieces []int) {
	rows, floats, width := 0, 0, 0
	for i, s := range sellers {
		if p := pieces[i]; p > 0 {
			k := s.Data.NumFeatures()
			rows += p
			floats += p * k
			width = max(width, k+1)
		}
	}
	sc.record = resize(sc.record, width)
	sc.x = resize(sc.x, floats)[:0]
	sc.y = resize(sc.y, rows)[:0]
	sc.chunks = resize(sc.chunks, len(sellers))
	sc.parts = resize(sc.parts, len(sellers))
}

// charges returns the budget ledger's arguments for a round: the ID and ε
// of every seller with pieces[i] > 0 and a positive ε, in seller order. The
// live round and replay both pass the transaction's Pieces. The slices are
// the scratch's and valid until the next call.
func (sc *roundScratch) charges(sellers []*Seller, epsilons []float64, pieces []int) ([]string, []float64) {
	sc.ids, sc.eps = sc.ids[:0], sc.eps[:0]
	for i, s := range sellers {
		if pieces[i] > 0 && epsilons[i] > 0 {
			sc.ids = append(sc.ids, s.ID)
			sc.eps = append(sc.eps, epsilons[i])
		}
	}
	return sc.ids, sc.eps
}

// joined returns every chunk's rows as one dataset in seller order — what
// dataset.Concat(sc.parts...) returns — without copying a row: the chunks
// were laid out contiguously, so the whole of x and y is the join. Every
// seller passed checkSeller, so the chunks share the test set's width.
func (sc *roundScratch) joined() *dataset.Dataset {
	sc.all = dataset.Dataset{X: sc.x, Y: sc.y}
	for _, c := range sc.parts {
		if c.Len() > 0 && sc.all.Features == nil {
			sc.all.Features, sc.all.Target = c.Features, c.Target
		}
	}
	return &sc.all
}

// sellData picks `pieces` rows from the seller's dataset (random without
// replacement; with replacement if the dataset is smaller than the
// allocation), copies each full record — features and target — into the
// round's record buffer and perturbs it there under ε-LDP, then appends
// its features to x and its target to y. Each record is perturbed by one
// Perturb call, so the seller's data sees exactly `pieces` LDP
// applications: the count the budget ledger is charged for. Mechanisms
// calibrated for features-only bounds (k attributes) are honored by
// leaving the target untouched, preserving custom-mechanism
// configurations. The returned chunk covers the rows just appended, so
// consecutive calls lay the sellers out contiguously in call order.
func (m *Market) sellData(sc *roundScratch, s *Seller, pieces int, eps float64) dataset.Dataset {
	out := dataset.Dataset{Features: s.Data.Features, Target: s.Data.Target}
	if pieces <= 0 {
		return out
	}
	var idx []int
	if pieces <= s.Data.Len() {
		sc.perm = resize(sc.perm, s.Data.Len())
		permInto(m.rng, sc.perm)
		idx = sc.perm[:pieces]
	} else {
		sc.idx = resize(sc.idx, pieces)
		idx = sc.idx
		for i := range idx {
			idx[i] = m.rng.Intn(s.Data.Len())
		}
	}
	k := s.Data.NumFeatures()
	fullRecord := mechanismAttrs(m.mechanism) != k
	record := sc.record[:k+1]
	firstX, firstY := len(sc.x), len(sc.y)
	for _, i := range idx {
		copy(record, s.Data.Row(i))
		record[k] = s.Data.Y[i]
		if fullRecord {
			m.mechanism.Perturb(m.rng, record, eps)
		} else {
			m.mechanism.Perturb(m.rng, record[:k], eps)
		}
		sc.x = append(sc.x, record[:k]...)
		sc.y = append(sc.y, record[k])
	}
	out.X = sc.x[firstX:len(sc.x):len(sc.x)]
	out.Y = sc.y[firstY:len(sc.y):len(sc.y)]
	return out
}

// permInto fills p with a random permutation of [0, len(p)) using the loop
// of math/rand's Perm: the same draws in the same order, so p equals
// rng.Perm(len(p)) and rng ends in the same state, without allocating.
// p's previous contents are irrelevant — every slot is written before it
// is read.
func permInto(rng *rand.Rand, p []int) {
	for i := range p {
		j := rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
}

// mechanismAttrs reports the attribute count a bounded mechanism was
// calibrated for, or -1 when unknown.
func mechanismAttrs(mech ldp.Mechanism) int {
	type sized interface{ Attrs() int }
	if s, ok := mech.(sized); ok {
		return s.Attrs()
	}
	return -1
}

// Warmup runs the dummy-buyer iterations of §6.1: it executes `iters`
// transactions for the given buyer to let the Shapley-driven weights
// stabilize, then truncates those rounds from the ledger and the round
// count (they are calibration, not trades). It requires weight updates to
// be enabled.
func (m *Market) Warmup(buyer core.Buyer, iters int) error {
	if m.update == nil {
		return errors.New("market: warm-up requires weight updates to be enabled")
	}
	base, last := m.rounds, m.last
	for i := 0; i < iters; i++ {
		if _, err := m.RunRound(buyer); err != nil {
			return fmt.Errorf("market: warm-up round %d: %w", i+1, err)
		}
	}
	if !m.noLedger {
		m.ledger = m.ledger[:base]
	}
	m.rounds, m.last = base, last
	return nil
}
