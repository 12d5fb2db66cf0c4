// Package httpapi exposes a pool of Share markets as a JSON-over-HTTP
// service — the "large-scale data trading center" of the paper's market
// assumptions, made operational and multi-tenant. A server hosts many
// named markets (internal/pool); in each, sellers register with their
// privacy sensitivity and data, buyers post demands, and each demand runs
// one full round of Algorithm 1 (strategy decision, LDP data transaction,
// product manufacture, Shapley weight update, settlement).
//
// The resource-oriented /v2 API (all JSON):
//
//	POST   /v2/markets                     create a market {"id", "solver"?, "seed"?}
//	GET    /v2/markets                     list hosted markets
//	GET    /v2/markets/{id}                one market's state
//	DELETE /v2/markets/{id}                drain in-flight rounds, delete
//	POST   /v2/markets/{id}/sellers        register a seller (before or after trading starts)
//	GET    /v2/markets/{id}/sellers        list sellers (limit/offset)
//	GET    /v2/markets/{id}/sellers/{sid}  one seller's state (weight, ε budget, discount)
//	DELETE /v2/markets/{id}/sellers/{sid}  release a seller from the roster
//	POST   /v2/markets/{id}/sellers/{sid}/budget  top up the seller's ε budget {"add"}
//	POST   /v2/markets/{id}/quotes         solve a BATCH of demands concurrently
//	POST   /v2/markets/{id}/trades         run one trading round
//	GET    /v2/markets/{id}/trades         list the ledger (limit/offset)
//	GET    /v2/markets/{id}/weights        broker dataset weights
//	GET    /v2/markets/{id}/stream         live SSE event stream (state, roster, weights)
//	GET    /v1/metrics                     request counters, latency quantiles, per-market series
//
// The flat /v1 routes (health, sellers, quote, trades, weights) survive as
// thin aliases onto the server's default market, so every pre-pool client
// keeps working unchanged.
//
// Errors: every non-2xx response, v1 and v2, carries the unified envelope
// {"error": {"code", "field", "message"}} with a stable machine-readable
// code (see the Code* constants).
//
// Concurrency model: reads are lock-free against each market's immutable
// copy-on-write view; only registration and trades serialize, per market.
// A trade holding one market's write path for minutes never delays a quote
// anywhere, nor a trade in any other market.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
	"unsafe"

	"share/internal/core"
	"share/internal/market"
	"share/internal/obs"
	"share/internal/parallel"
	"share/internal/pool"
	"share/internal/product"
	"share/internal/solve"
	"share/internal/translog"
)

// defaultMaxBodyBytes caps request bodies when Options.MaxBodyBytes is
// unset: 8 MiB comfortably fits realistic inline datasets while bounding
// the memory an abusive payload can pin.
const defaultMaxBodyBytes = 8 << 20

// DefaultMarketID is the market the /v1 alias routes operate on when
// Options.DefaultMarket is unset.
const DefaultMarketID = "default"

// Server is the HTTP facade over a market pool. The default market backs
// the /v1 alias routes; /v2 addresses any hosted market by ID.
type Server struct {
	pool      *pool.Pool
	defaultID string

	logf    func(format string, args ...any)
	metrics *obs.Registry
	maxBody int64
	reqSeq  atomic.Uint64

	// quotes keeps the quote handlers' per-request scratch between
	// requests (see quoteScratch).
	quotes parallel.FreeList[quoteScratch]

	// testHookTradeBuilder, when set, replaces the resolved product builder
	// on every trade. Tests use it to inject blocking or failing builders;
	// it is never set in production.
	testHookTradeBuilder product.Builder
}

// Options configure a Server.
type Options struct {
	// Cost is the broker's translog cost model (zero value: paper
	// defaults).
	Cost *translog.Params
	// TestRows sizes the held-out synthetic CCPP test set used to score
	// products, per market (0 → 500).
	TestRows int
	// Update enables Shapley weight updates (nil → the paper's
	// ω' = 0.2ω + 0.8·SV with 20 permutations).
	Update *market.WeightUpdate
	// Workers is the shared worker budget: Shapley valuation fan-out per
	// trade and batch-quote fan-out (0 keeps the Update's own setting; the
	// valuation of every product is identical for every worker count, so
	// this is purely a latency knob).
	Workers int
	// Solver names the default equilibrium backend ("" → analytic).
	// Markets may override it at creation, and individual quotes and
	// trades via the demand's `solver` field. An unknown name falls back
	// to the analytic default (CLI entry points validate the flag before
	// getting here).
	Solver string
	// Seed seeds the server's default market; other markets derive their
	// seeds from it unless created with an explicit one.
	Seed int64
	// Logf receives request-level log lines (nil → log.Printf).
	Logf func(format string, args ...any)
	// MaxBodyBytes caps request body size; oversized bodies get 413
	// (0 → 8 MiB).
	MaxBodyBytes int64
	// TradeTimeout bounds one trading round beyond the request's own
	// context; expired rounds return 504 (0 → no server-side deadline).
	TradeTimeout time.Duration
	// TradeConcurrency caps in-flight trades per market (0 → the pool
	// default, one). Markets may override it at creation.
	TradeConcurrency int
	// TradeQueue sizes each market's trade waiting room (0 → the pool
	// default, 64; negative → no waiting room). Trades past the queue
	// answer 429 with a Retry-After hint. Markets may override it at
	// creation.
	TradeQueue int
	// SnapshotDir enables per-market persistence under this directory
	// ("" → disabled): each market's write-ahead log and compaction
	// snapshots. Boot and shutdown hooks call Pool().RestoreAll and
	// Pool().SaveAll.
	SnapshotDir string
	// Durability is the default WAL commit mode for markets: "sync"
	// (per-commit fsync), "group" (batched fsync, the default) or "async"
	// (background flush). Markets may override it at creation. Unknown
	// names fall back to the default (CLI entry points validate the flag
	// before getting here).
	Durability string
	// DefaultMarket names the market the /v1 aliases operate on
	// ("" → "default").
	DefaultMarket string
	// EpsilonBudget is the default per-seller privacy budget (total ε a
	// seller's data may absorb across rounds) for markets on this server.
	// 0 disables budgeting; markets may override it at creation.
	EpsilonBudget float64
	// Composition selects how per-round ε charges compose into a seller's
	// spent total: "basic" (plain sum, the default) or "advanced" (the
	// strong-composition bound). Markets may override it at creation.
	Composition string
	// DiscountFactor enables similarity-aware pricing: the maximum fraction
	// shaved off a fully redundant seller's Shapley payout (0 disables,
	// must be ≤ 1).
	DiscountFactor float64
	// DiscountThreshold is the pairwise-redundancy level below which no
	// discount applies (default 0 discounts any redundancy; must be < 1).
	DiscountThreshold float64
}

// NewServer builds a service hosting one empty default market; further
// markets are created over HTTP (POST /v2/markets) or restored from the
// snapshot directory.
func NewServer(opt Options) *Server {
	logf := opt.Logf
	if logf == nil {
		logf = log.Printf
	}
	maxBody := opt.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = defaultMaxBodyBytes
	}
	defaultID := opt.DefaultMarket
	if defaultID == "" {
		defaultID = DefaultMarketID
	}
	s := &Server{
		defaultID: defaultID,
		logf:      logf,
		metrics:   obs.NewRegistry(),
		maxBody:   maxBody,
	}
	s.pool = pool.New(pool.Options{
		Cost:              opt.Cost,
		TestRows:          opt.TestRows,
		Update:            opt.Update,
		Workers:           opt.Workers,
		Solver:            opt.Solver,
		Seed:              opt.Seed,
		TradeTimeout:      opt.TradeTimeout,
		TradeConcurrency:  opt.TradeConcurrency,
		TradeQueue:        opt.TradeQueue,
		SnapshotDir:       opt.SnapshotDir,
		Durability:        opt.Durability,
		EpsilonBudget:     opt.EpsilonBudget,
		Composition:       opt.Composition,
		DiscountFactor:    opt.DiscountFactor,
		DiscountThreshold: opt.DiscountThreshold,
		Metrics:           s.metrics,
		Logf:              logf,
	})
	seed := opt.Seed
	if _, err := s.pool.Create(pool.Spec{ID: defaultID, Seed: &seed}); err != nil {
		// Unreachable: the pool is empty and the ID was validated above by
		// construction; fail loudly rather than serve without the alias
		// target.
		panic(fmt.Sprintf("httpapi: creating default market: %v", err))
	}
	return s
}

// Pool exposes the underlying market pool (for embedding and lifecycle
// hooks in cmd/share-server).
func (s *Server) Pool() *pool.Pool { return s.pool }

// DefaultMarket names the market the /v1 aliases operate on.
func (s *Server) DefaultMarket() string { return s.defaultID }

// Handler returns the routed http.Handler for the service. Every route is
// instrumented: per-endpoint counters/latency/in-flight in the metrics
// registry, request-ID structured logging, and a request body cap.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(pattern, h))
	}
	// v1: flat aliases onto the default market.
	route("GET /v1/health", s.onDefault(s.handleHealth))
	route("POST /v1/sellers", s.onDefault(s.handleRegisterSeller))
	route("GET /v1/sellers", s.onDefault(s.handleListSellers))
	route("POST /v1/quote", s.onDefault(s.handleQuote))
	route("POST /v1/trades", s.onDefault(s.handleTrade))
	route("GET /v1/trades", s.onDefault(s.handleListTrades))
	route("GET /v1/weights", s.onDefault(s.handleWeights))
	route("GET /v1/metrics", s.handleMetrics)
	// v2: resource-oriented, any market by ID.
	route("POST /v2/markets", s.handleCreateMarket)
	route("GET /v2/markets", s.handleListMarkets)
	route("GET /v2/markets/{id}", s.onMarket(s.handleGetMarket))
	route("DELETE /v2/markets/{id}", s.handleDeleteMarket)
	route("POST /v2/markets/{id}/sellers", s.onMarket(s.handleRegisterSeller))
	route("GET /v2/markets/{id}/sellers", s.onMarket(s.handleListSellers))
	route("GET /v2/markets/{id}/sellers/{sid}", s.onMarket(s.handleGetSeller))
	route("DELETE /v2/markets/{id}/sellers/{sid}", s.onMarket(s.handleRemoveSeller))
	route("POST /v2/markets/{id}/sellers/{sid}/budget", s.onMarket(s.handleTopUpBudget))
	route("POST /v2/markets/{id}/quotes", s.onMarket(s.handleQuoteBatch))
	route("POST /v2/markets/{id}/trades", s.onMarket(s.handleTrade))
	route("GET /v2/markets/{id}/trades", s.onMarket(s.handleListTrades))
	route("GET /v2/markets/{id}/weights", s.onMarket(s.handleWeights))
	route("GET /v2/markets/{id}/stream", s.onMarket(s.handleStream))
	return mux
}

// marketHandler is a handler bound to a resolved market.
type marketHandler func(w http.ResponseWriter, r *http.Request, m *pool.Market)

// onMarket resolves the {id} path segment against the pool, answering 404
// with a market_not_found envelope for unknown IDs.
func (s *Server) onMarket(h marketHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		m, err := s.pool.Get(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		h(w, r, m)
	}
}

// onDefault binds a handler to the default market — the /v1 alias path.
func (s *Server) onDefault(h marketHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		m, err := s.pool.Get(s.defaultID)
		if err != nil {
			writeError(w, err)
			return
		}
		h(w, r, m)
	}
}

// statusWriter captures the response status for logging and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the underlying writer so http.NewResponseController can
// reach Flush and SetWriteDeadline through the status-capturing wrapper —
// the SSE stream handler needs both.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps a handler with the request body cap, per-endpoint
// metrics, and request-ID structured logging.
func (s *Server) instrument(label string, h http.HandlerFunc) http.HandlerFunc {
	ep := s.metrics.Endpoint(label)
	return func(w http.ResponseWriter, r *http.Request) {
		id := s.reqSeq.Add(1)
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		ep.Begin()
		start := time.Now()
		h(sw, r)
		d := time.Since(start)
		ep.End(sw.status, d)
		s.logf("httpapi: req=%d method=%s path=%s status=%d dur=%s remote=%s",
			id, r.Method, r.URL.Path, sw.status, d.Round(time.Microsecond), r.RemoteAddr)
	}
}

// --- wire types ---

// MarketSpec is the POST /v2/markets request body.
type MarketSpec struct {
	// ID names the market: 1–64 characters from [A-Za-z0-9._-], starting
	// with a letter or digit.
	ID string `json:"id"`
	// Solver overrides the server's default equilibrium backend for this
	// market.
	Solver string `json:"solver,omitempty"`
	// Seed pins the market's random seed (absent → derived from the
	// server seed and the ID).
	Seed *int64 `json:"seed,omitempty"`
	// Durability overrides the server's default WAL commit mode for this
	// market: "sync", "group" or "async" ("" → server default). Unknown
	// names are a field-level error.
	Durability string `json:"durability,omitempty"`
	// TradeConcurrency overrides the server's in-flight trade cap for this
	// market (absent → server default; must be ≥ 1).
	TradeConcurrency *int `json:"trade_concurrency,omitempty"`
	// TradeQueue overrides the server's trade waiting-room size for this
	// market (absent → server default; an explicit 0 rejects the moment
	// every slot is busy; must be ≥ 0). Trades past the queue answer 429
	// with a Retry-After hint.
	TradeQueue *int `json:"trade_queue,omitempty"`
	// EpsilonBudget overrides the server's default per-seller privacy
	// budget for this market (absent → server default; an explicit 0
	// disables budgeting; negative or non-finite values are a field-level
	// error). When set, every trade charges each participating seller's
	// ledger with the round's ε and refuses with 409 budget_exhausted once
	// a charge would overrun a seller's budget.
	EpsilonBudget *float64 `json:"epsilon_budget,omitempty"`
	// Composition selects this market's ε-composition rule: "basic" (plain
	// sum) or "advanced" (the strong-composition bound). "" inherits the
	// server default; unknown names are a field-level error.
	Composition string `json:"composition,omitempty"`
}

// MarketInfo is the market resource representation (POST/GET /v2/markets).
type MarketInfo = pool.Info

// StreamEvent is one frame of a market's live event stream: the initial
// "state" snapshot, then "roster" (join/leave) and "weights" (committed
// trade) deltas.
type StreamEvent = pool.Event

// SellerRegistration is the seller-registration request body. Exactly one
// of Rows/Targets or SyntheticRows must supply data.
type SellerRegistration struct {
	// ID labels the seller; must be unique and non-empty.
	ID string `json:"id"`
	// Lambda is the seller's privacy sensitivity λ > 0.
	Lambda float64 `json:"lambda"`
	// Rows and Targets carry the seller's dataset inline.
	Rows    [][]float64 `json:"rows,omitempty"`
	Targets []float64   `json:"targets,omitempty"`
	// SyntheticRows asks the server to mint a CCPP-like dataset of this
	// size for the seller (demo mode).
	SyntheticRows int `json:"synthetic_rows,omitempty"`
}

// SellerInfo is the seller resource representation, shared by the seller
// listings and GET /v2/markets/{id}/sellers/{sid}. The budget and discount
// fields are omitted when the market has no privacy-budget ledger (resp. no
// similarity discounting) configured.
type SellerInfo struct {
	ID     string  `json:"id"`
	Lambda float64 `json:"lambda"`
	Rows   int     `json:"rows"`
	Weight float64 `json:"weight"`
	// RosterEpoch is the roster epoch the state was read at.
	RosterEpoch uint64 `json:"roster_epoch,omitempty"`
	// EpsilonBudget and EpsilonSpent are the seller's total privacy budget
	// and the ε composed across the rounds she sold into so far.
	EpsilonBudget float64 `json:"epsilon_budget,omitempty"`
	EpsilonSpent  float64 `json:"epsilon_spent,omitempty"`
	// Discount is the similarity factor applied to the seller's payout in
	// the last committed round (1 = undiscounted).
	Discount float64 `json:"discount,omitempty"`
}

// sellerInfo renders one roster entry read at the given epoch.
func sellerInfo(st pool.SellerState, epoch uint64) SellerInfo {
	return SellerInfo{
		ID:            st.ID,
		Lambda:        st.Lambda,
		Rows:          st.Rows,
		Weight:        st.Weight,
		RosterEpoch:   epoch,
		EpsilonBudget: st.Budget,
		EpsilonSpent:  st.Spent,
		Discount:      st.Discount,
	}
}

// TopUpRequest is the POST /v2/markets/{id}/sellers/{sid}/budget body.
type TopUpRequest struct {
	// Add is the ε granted on top of the seller's current budget; must be
	// positive and finite.
	Add float64 `json:"add"`
}

// Demand is a buyer's product demand. Zero utility fields default to the
// paper's values.
type Demand struct {
	// N is the requested manufacturing data quantity.
	N float64 `json:"n"`
	// V is the required product performance.
	V float64 `json:"v"`
	// Theta1/Theta2/Rho1/Rho2 are the buyer's utility parameters.
	Theta1 float64 `json:"theta1,omitempty"`
	Theta2 float64 `json:"theta2,omitempty"`
	Rho1   float64 `json:"rho1,omitempty"`
	Rho2   float64 `json:"rho2,omitempty"`
	// Product selects this trade's data product: "" or "ols", "ridge",
	// "logistic", "mean", "histogram". Quotes ignore it (the equilibrium
	// is product-agnostic).
	Product string `json:"product,omitempty"`
	// Solver selects the equilibrium backend for this request: "" (the
	// market's default), "analytic", "meanfield" or "general". Approximate
	// backends attach their error guarantee to the quote.
	Solver string `json:"solver,omitempty"`
}

// QuoteBatchRequest is the POST /v2/markets/{id}/quotes body: a batch of
// demands solved concurrently against one consistent market view.
type QuoteBatchRequest struct {
	Demands []Demand `json:"demands"`
}

// QuoteBatchResult is the batch-quote response; Quotes[i] answers
// Demands[i].
type QuoteBatchResult struct {
	Quotes []Quote `json:"quotes"`
}

// buyer maps the demand onto the paper's buyer, validating every supplied
// field: absent (zero) fields fall back to the paper defaults, present
// fields must satisfy the model's constraints — θ₁, θ₂ ∈ (0,1) and summing
// to 1 when both are given, ρ/n/v positive. Sending only one of θ₁/θ₂
// pins the other to its complement.
func (d Demand) buyer() (core.Buyer, error) {
	b := core.PaperBuyer()
	if d.N != 0 {
		if !(d.N > 0) {
			return b, fieldErrorf("n", "data quantity must be positive, got %g", d.N)
		}
		b.N = d.N
	}
	if d.V != 0 {
		if !(d.V > 0) {
			return b, fieldErrorf("v", "required performance must be positive, got %g", d.V)
		}
		b.V = d.V
	}
	if d.Theta1 != 0 && !(d.Theta1 > 0 && d.Theta1 < 1) {
		return b, fieldErrorf("theta1", "must lie in (0,1), got %g", d.Theta1)
	}
	if d.Theta2 != 0 && !(d.Theta2 > 0 && d.Theta2 < 1) {
		return b, fieldErrorf("theta2", "must lie in (0,1), got %g", d.Theta2)
	}
	switch {
	case d.Theta1 != 0 && d.Theta2 != 0:
		if diff := d.Theta1 + d.Theta2 - 1; diff < -1e-9 || diff > 1e-9 {
			return b, fieldErrorf("theta1", "theta1+theta2 must sum to 1, got %g", d.Theta1+d.Theta2)
		}
		b.Theta1, b.Theta2 = d.Theta1, d.Theta2
	case d.Theta1 != 0:
		b.Theta1, b.Theta2 = d.Theta1, 1-d.Theta1
	case d.Theta2 != 0:
		b.Theta1, b.Theta2 = 1-d.Theta2, d.Theta2
	}
	if d.Rho1 != 0 {
		if !(d.Rho1 > 0) {
			return b, fieldErrorf("rho1", "must be positive, got %g", d.Rho1)
		}
		b.Rho1 = d.Rho1
	}
	if d.Rho2 != 0 {
		if !(d.Rho2 > 0) {
			return b, fieldErrorf("rho2", "must be positive, got %g", d.Rho2)
		}
		b.Rho2 = d.Rho2
	}
	return b, nil
}

// ApproxInfo reports an approximate backend's error guarantee: the
// Theorem 5.1 interval bounding the mean-fidelity error, and whether the
// theorem's ω-scaling precondition held (when false the interval is a
// heuristic, not a guarantee).
type ApproxInfo struct {
	ErrorLo        float64 `json:"error_lo"`
	ErrorHi        float64 `json:"error_hi"`
	ConditionHolds bool    `json:"condition_holds"`
}

// Quote is one solved equilibrium without a trade.
type Quote struct {
	Solver       string      `json:"solver"`
	ProductPrice float64     `json:"product_price"`
	DataPrice    float64     `json:"data_price"`
	Fidelities   []float64   `json:"fidelities"`
	Allocations  []float64   `json:"allocations"`
	BuyerProfit  float64     `json:"buyer_profit"`
	BrokerProfit float64     `json:"broker_profit"`
	SellerProfit []float64   `json:"seller_profits"`
	DatasetQ     float64     `json:"dataset_quality"`
	ProductQ     float64     `json:"product_quality"`
	Approx       *ApproxInfo `json:"approx,omitempty"`
}

// TradeResult is the trade-execution response.
type TradeResult struct {
	Round             int       `json:"round"`
	Product           string    `json:"product"`
	Solver            string    `json:"solver"`
	Quote             Quote     `json:"quote"`
	Pieces            []int     `json:"pieces"`
	Compensations     []float64 `json:"compensations"`
	Payment           float64   `json:"payment"`
	ManufacturingCost float64   `json:"manufacturing_cost"`
	Performance       float64   `json:"performance"`
	ExplainedVariance float64   `json:"explained_variance"`
	RMSE              float64   `json:"rmse"`
	Weights           []float64 `json:"weights"`
	TotalSeconds      float64   `json:"total_seconds"`
}

// --- market lifecycle handlers (v2) ---

func (s *Server) handleCreateMarket(w http.ResponseWriter, r *http.Request) {
	var spec MarketSpec
	if err := decodeJSON(r, &spec); err != nil {
		writeDecodeError(w, err)
		return
	}
	m, err := s.pool.Create(pool.Spec{
		ID:               spec.ID,
		Solver:           spec.Solver,
		Seed:             spec.Seed,
		Durability:       spec.Durability,
		TradeConcurrency: spec.TradeConcurrency,
		TradeQueue:       spec.TradeQueue,
		EpsilonBudget:    spec.EpsilonBudget,
		Composition:      spec.Composition,
	})
	if err != nil {
		writeError(w, err)
		return
	}
	s.logf("httpapi: created market %q (solver=%s, seed=%d, durability=%s)", m.ID(), m.Solver(), m.Seed(), m.Durability())
	writeJSON(w, http.StatusCreated, m.Info())
}

func (s *Server) handleListMarkets(w http.ResponseWriter, r *http.Request) {
	infos := s.pool.List()
	w.Header().Set("X-Total-Count", strconv.Itoa(len(infos)))
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleGetMarket(w http.ResponseWriter, r *http.Request, m *pool.Market) {
	writeJSON(w, http.StatusOK, m.Info())
}

func (s *Server) handleDeleteMarket(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if id == s.defaultID {
		writeError(w, apiErrorf(http.StatusConflict, CodeMarketProtected,
			"market %q is the /v1 alias target and cannot be deleted", id))
		return
	}
	if err := s.pool.Delete(r.Context(), id); err != nil {
		writeError(w, err)
		return
	}
	s.logf("httpapi: deleted market %q", id)
	w.WriteHeader(http.StatusNoContent)
}

// --- per-market handlers (v1 alias + v2) ---

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request, m *pool.Market) {
	v := m.View()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"sellers": len(v.Sellers),
		"trades":  len(v.Trades),
		"trading": v.Trading,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.Snapshot())
}

func (s *Server) handleRegisterSeller(w http.ResponseWriter, r *http.Request, m *pool.Market) {
	var reg SellerRegistration
	if err := decodeJSON(r, &reg); err != nil {
		writeDecodeError(w, err)
		return
	}
	st, err := m.RegisterSeller(pool.Registration{
		ID:            reg.ID,
		Lambda:        reg.Lambda,
		Rows:          reg.Rows,
		Targets:       reg.Targets,
		SyntheticRows: reg.SyntheticRows,
	})
	if err != nil {
		writeError(w, err)
		return
	}
	// Serve the full resource shape: the published view carries the
	// admission's budget state (a concurrent removal can race the lookup,
	// in which case the registration-time state stands).
	if fresh, epoch, err := m.Seller(st.ID); err == nil {
		writeJSON(w, http.StatusCreated, sellerInfo(fresh, epoch))
		return
	}
	writeJSON(w, http.StatusCreated, SellerInfo{ID: st.ID, Lambda: st.Lambda, Rows: st.Rows, Weight: st.Weight})
}

func (s *Server) handleGetSeller(w http.ResponseWriter, r *http.Request, m *pool.Market) {
	st, epoch, err := m.Seller(r.PathValue("sid"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sellerInfo(st, epoch))
}

// handleTopUpBudget raises one seller's privacy budget. The grant is
// persisted like any other ledger mutation and the refreshed seller
// resource is returned.
func (s *Server) handleTopUpBudget(w http.ResponseWriter, r *http.Request, m *pool.Market) {
	var req TopUpRequest
	if err := decodeJSON(r, &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	sid := r.PathValue("sid")
	st, err := m.TopUpBudget(sid, req.Add)
	if err != nil {
		writeError(w, err)
		return
	}
	s.logf("httpapi: market %q topped up seller %q budget by ε=%g", m.ID(), sid, req.Add)
	writeJSON(w, http.StatusOK, sellerInfo(st, m.View().Epoch))
}

func (s *Server) handleRemoveSeller(w http.ResponseWriter, r *http.Request, m *pool.Market) {
	sid := r.PathValue("sid")
	if err := m.RemoveSeller(sid); err != nil {
		writeError(w, err)
		return
	}
	s.logf("httpapi: market %q released seller %q", m.ID(), sid)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleListSellers(w http.ResponseWriter, r *http.Request, m *pool.Market) {
	v := m.View()
	lo, hi, err := paginate(w, r, len(v.Sellers))
	if err != nil {
		writeError(w, err)
		return
	}
	out := make([]SellerInfo, 0, hi-lo)
	for _, st := range v.Sellers[lo:hi] {
		out = append(out, sellerInfo(st, v.Epoch))
	}
	writeJSON(w, http.StatusOK, out)
}

// quoteFromProfile renders p into q. The vectors are shared with p, and
// q's ApproxInfo is reused when p carries a bound.
func quoteFromProfile(q *Quote, p *core.Profile, solver string) {
	approx := q.Approx
	*q = Quote{
		Solver:       solver,
		ProductPrice: p.PM,
		DataPrice:    p.PD,
		Fidelities:   p.Tau,
		Allocations:  p.Chi,
		BuyerProfit:  p.BuyerProfit,
		BrokerProfit: p.BrokerProfit,
		SellerProfit: p.SellerProfits,
		DatasetQ:     p.QD,
		ProductQ:     p.QM,
	}
	if p.Approx != nil {
		if approx == nil {
			approx = new(ApproxInfo)
		}
		*approx = ApproxInfo{
			ErrorLo:        p.Approx.Lo,
			ErrorHi:        p.Approx.Hi,
			ConditionHolds: p.Approx.ConditionHolds,
		}
		q.Approx = approx
	}
}

// maxBatchDemands caps one batch quote. The response grows with demands ×
// sellers, so without a cap the 8 MiB body limit would admit millions of
// demands and a response hundreds of megabytes long.
const maxBatchDemands = 1024

// quoteScratch is one quote request's working memory: the solved profiles,
// their response bodies and the batch's demand and name slices. The quote
// handlers take one from Server.quotes and return it once the body is
// written, so a steady stream of quotes refills the same vectors instead
// of allocating them per request.
type quoteScratch struct {
	prof  core.Profile // a single quote's profile
	quote Quote        // and its response

	demands  []pool.BatchDemand
	profiles []core.Profile
	names    []string
	batch    QuoteBatchResult
}

// releaseQuoteScratch returns sc to the server's free list with its
// footprint, so that the scratch of an unusually large batch is dropped
// rather than kept.
func (s *Server) releaseQuoteScratch(sc *quoteScratch) {
	bytes := profileBytes(&sc.prof) +
		cap(sc.demands)*int(unsafe.Sizeof(pool.BatchDemand{})) +
		cap(sc.profiles)*int(unsafe.Sizeof(core.Profile{})) +
		cap(sc.names)*int(unsafe.Sizeof("")) +
		cap(sc.batch.Quotes)*int(unsafe.Sizeof(Quote{}))
	all := sc.profiles[:cap(sc.profiles)]
	for i := range all {
		bytes += profileBytes(&all[i])
	}
	s.quotes.Put(sc, bytes)
}

// profileBytes is the size of a profile's vectors.
func profileBytes(p *core.Profile) int {
	return 8 * (cap(p.Tau) + cap(p.Chi) + cap(p.SellerProfits))
}

// resize returns s with length n, reusing its array when the capacity
// suffices. Entries it reuses keep their old contents for the caller to
// overwrite.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// solveError classifies an equilibrium-solve failure: the prepared game was
// assembled from the market's own validated sellers and weights, so any
// failure other than cancellation is attributable to the buyer's demand
// parameters.
func solveError(err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return apiErrorf(http.StatusBadRequest, CodeInvalidDemand, "%v", err)
}

// handleQuote solves one demand against the market's published view — no
// locks, so quotes stay responsive while a trade holds the write path.
func (s *Server) handleQuote(w http.ResponseWriter, r *http.Request, m *pool.Market) {
	var d Demand
	if err := decodeJSON(r, &d); err != nil {
		writeDecodeError(w, err)
		return
	}
	b, err := d.buyer()
	if err != nil {
		writeError(w, err)
		return
	}
	sc := s.quotes.Get()
	defer s.releaseQuoteScratch(sc)
	name, err := m.QuoteInto(r.Context(), b, d.Solver, &sc.prof)
	if err != nil {
		var fe *pool.FieldError
		if errors.As(err, &fe) || errors.Is(err, pool.ErrNoSellers) {
			writeError(w, err)
			return
		}
		writeError(w, solveError(err))
		return
	}
	quoteFromProfile(&sc.quote, &sc.prof, name)
	writeJSON(w, http.StatusOK, &sc.quote)
}

// handleQuoteBatch solves a batch of demands concurrently against one
// consistent view snapshot, fanned across the pool's shared worker budget.
// The response is byte-identical for every worker count.
func (s *Server) handleQuoteBatch(w http.ResponseWriter, r *http.Request, m *pool.Market) {
	var req QuoteBatchRequest
	if err := decodeJSON(r, &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	n := len(req.Demands)
	if n == 0 {
		writeError(w, fieldErrorf("demands", "at least one demand is required"))
		return
	}
	if n > maxBatchDemands {
		writeError(w, fieldErrorf("demands", "at most %d demands per batch, got %d", maxBatchDemands, n))
		return
	}
	sc := s.quotes.Get()
	defer s.releaseQuoteScratch(sc)
	sc.demands = resize(sc.demands, n)
	for i, d := range req.Demands {
		b, err := d.buyer()
		if err != nil {
			writeError(w, &pool.BatchError{Index: i, Err: err})
			return
		}
		sc.demands[i] = pool.BatchDemand{Buyer: b, Solver: d.Solver}
	}
	sc.profiles = resize(sc.profiles, n)
	sc.names = resize(sc.names, n)
	if err := m.QuoteBatchInto(r.Context(), sc.demands, sc.profiles, sc.names); err != nil {
		var be *pool.BatchError
		if errors.As(err, &be) {
			var fe *pool.FieldError
			if !errors.As(be.Err, &fe) && !errors.Is(be.Err, pool.ErrNoSellers) {
				err = &pool.BatchError{Index: be.Index, Err: solveError(be.Err)}
			}
		}
		writeError(w, err)
		return
	}
	sc.batch.Quotes = resize(sc.batch.Quotes, n)
	for i := range sc.profiles {
		quoteFromProfile(&sc.batch.Quotes[i], &sc.profiles[i], sc.names[i])
	}
	writeJSON(w, http.StatusOK, &sc.batch)
}

func (s *Server) handleTrade(w http.ResponseWriter, r *http.Request, m *pool.Market) {
	var d Demand
	if err := decodeJSON(r, &d); err != nil {
		writeDecodeError(w, err)
		return
	}
	b, err := d.buyer()
	if err != nil {
		writeError(w, err)
		return
	}
	builder, err := product.ByName(d.Product, m.TestSet())
	if err != nil {
		writeError(w, fieldErrorf("product", "%v", err))
		return
	}
	if s.testHookTradeBuilder != nil {
		builder = s.testHookTradeBuilder
	}
	var backend solve.Backend // nil = the market's configured default
	if d.Solver != "" {
		backend, err = solve.Lookup(d.Solver)
		if err != nil {
			writeError(w, &pool.FieldError{Field: "solver", Msg: err.Error()})
			return
		}
	}
	tx, err := m.Trade(r.Context(), b, builder, backend)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, tradeResult(tx))
}

func tradeResult(tx *market.Transaction) TradeResult {
	res := TradeResult{
		Round:             tx.Round,
		Product:           tx.Product,
		Solver:            tx.Solver,
		Pieces:            tx.Pieces,
		Compensations:     tx.Compensations,
		Payment:           tx.Payment,
		ManufacturingCost: tx.ManufacturingCost,
		Performance:       tx.Metrics.Performance,
		ExplainedVariance: tx.Metrics.Detail["explained_variance"],
		RMSE:              tx.Metrics.Detail["rmse"],
		Weights:           tx.Weights,
		TotalSeconds:      tx.Timings.Total.Seconds(),
	}
	quoteFromProfile(&res.Quote, tx.Profile, tx.Solver)
	return res
}

func (s *Server) handleListTrades(w http.ResponseWriter, r *http.Request, m *pool.Market) {
	v := m.View()
	lo, hi, err := paginate(w, r, len(v.Trades))
	if err != nil {
		writeError(w, err)
		return
	}
	out := make([]TradeResult, 0, hi-lo)
	for _, tx := range v.Trades[lo:hi] {
		out = append(out, tradeResult(tx))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleWeights(w http.ResponseWriter, r *http.Request, m *pool.Market) {
	writeJSON(w, http.StatusOK, m.View().Weights)
}

// streamHeartbeat is the SSE keep-alive cadence: a comment frame often
// enough to defeat idle-connection reaping by proxies, rare enough to cost
// nothing.
const streamHeartbeat = 15 * time.Second

// handleStream serves the market's live event stream as Server-Sent Events.
// The first frame is a "state" snapshot of the current roster, weights and
// epoch, so a subscriber needs no separate GET to establish a baseline;
// every committed roster change and trade then pushes a "roster" or
// "weights" delta (see pool.Event for the payload). A slow consumer falls
// behind (the pool drops frames past its buffer) but never stalls the
// market's write path.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request, m *pool.Market) {
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	ch, cancel := m.Subscribe(0)
	defer cancel()
	v := m.View()
	init := StreamEvent{Type: "state", Market: m.ID(), Epoch: v.Epoch, Weights: v.Weights}
	init.Sellers = make([]string, len(v.Sellers))
	for i, st := range v.Sellers {
		init.Sellers[i] = st.ID
	}
	if err := writeSSE(w, init); err != nil {
		return
	}
	if err := rc.Flush(); err != nil {
		// The underlying writer cannot stream; an SSE endpoint that
		// buffers forever is useless, so give up loudly.
		s.logf("httpapi: market %q stream: flush unsupported: %v", m.ID(), err)
		return
	}
	// Streams are long-lived: lift any server-side write deadline and let
	// the heartbeat keep the connection alive instead. Failure means the
	// server has no deadline to lift.
	_ = rc.SetWriteDeadline(time.Time{})
	hb := time.NewTicker(streamHeartbeat)
	defer hb.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if writeSSE(w, ev) != nil || rc.Flush() != nil {
				return
			}
		case <-hb.C:
			if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
				return
			}
			if rc.Flush() != nil {
				return
			}
		}
	}
}

// writeSSE renders one event as an SSE frame: an `event:` line naming the
// type (so EventSource listeners can filter) and a `data:` line carrying
// the JSON payload.
func writeSSE(w io.Writer, ev StreamEvent) error {
	raw, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, raw)
	return err
}

// --- plumbing ---

// paginate applies the limit/offset query parameters to a listing of
// `total` items, returning the [lo, hi) window and stamping the
// X-Total-Count header. Absent parameters return the full range; an
// explicit limit=0 is a valid empty page (the header still carries the
// total); an offset past the end is an empty page, not an error; bad
// values are a field-level 400.
func paginate(w http.ResponseWriter, r *http.Request, total int) (lo, hi int, err error) {
	q := r.URL.Query()
	lo, hi = 0, total
	if raw := q.Get("offset"); raw != "" {
		n, perr := strconv.Atoi(raw)
		if perr != nil || n < 0 {
			return 0, 0, fieldErrorf("offset", "must be a non-negative integer, got %q", raw)
		}
		lo = min(n, total)
		if hi < lo {
			hi = lo
		}
	}
	if raw := q.Get("limit"); raw != "" {
		n, perr := strconv.Atoi(raw)
		if perr != nil || n < 0 {
			return 0, 0, fieldErrorf("limit", "must be a non-negative integer, got %q", raw)
		}
		// Overflow-safe: lo+n wraps negative for n near MaxInt, and a
		// negative hi panics the [lo:hi] slice below — compare against the
		// remaining span instead of adding.
		if n < total-lo {
			hi = lo + n
		} else {
			hi = total
		}
	}
	w.Header().Set("X-Total-Count", strconv.Itoa(total))
	return lo, hi, nil
}

func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	// Drain past the value: rejects trailing garbage and ensures an
	// oversized body trips the MaxBytesReader cap even when the leading
	// JSON value itself was small.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		if err == nil {
			return errors.New("invalid request body: unexpected trailing data")
		}
		return fmt.Errorf("invalid request body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The status line is already out; nothing more to do than log via
		// the default logger.
		log.Printf("httpapi: encoding response: %v", err)
	}
}
