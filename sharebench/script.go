package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"share/internal/httpapi"
)

// kind is the request type of one scripted operation.
type kind uint8

const (
	kQuote    kind = iota // POST /v1/quote: one analytic quote on the default market
	kBatch                // POST /v2/markets/{id}/quotes: a mean-field batch
	kTrade                // POST /v2/markets/{id}/trades
	kRegister             // POST /v2/markets/{id}/sellers before the first trade
	numKinds
)

var kindNames = [numKinds]string{"quote", "batch", "trade", "register"}

func (k kind) String() string { return kindNames[k] }

// op is one scripted request. Everything the server sees is fixed here,
// before the server starts.
type op struct {
	Kind   kind
	Market int     // index into script.Markets
	Demand int     // index into script.Demands (quote, trade)
	Batch  []int   // demand indices (batch)
	Seller string  // register
	Lambda float64 // register
	Rows   int     // register: synthetic rows minted by the server
}

// marketSetup is one market the script creates. The default market exists
// at boot; the others are created over /v2 with a pinned seed.
type marketSetup struct {
	ID     string
	Seed   int64
	Budget float64 // per-seller ε budget; 0 disables budgeting
}

// script is one workload run, generated whole from the seed.
type script struct {
	Workload string
	// ServerSeed is the server's -seed, which seeds the default market.
	ServerSeed int64
	// ServerBudget is the server's -epsilon-budget, which the default
	// market inherits.
	ServerBudget float64
	Markets      []marketSetup
	Demands      []httpapi.Demand
	// Register and Warmup are the set-up after market creation, sent in
	// order, each market's ops on one of Conns connections.
	Register []op
	Warmup   []op
	// Closed is the measured closed-loop script, pulled from one shared
	// cursor by Conns connections.
	Closed []op
	Conns  int
	// Headline is the request kind share-server.req_p50_ms times.
	Headline kind
	// ProbeMarket is the market whose final state the end-of-phase probes
	// read: the last one traded.
	ProbeMarket int
}

// defaultMarket is the market the server creates at boot; single quotes
// (POST /v1/quote) can only address it.
const defaultMarket = httpapi.DefaultMarketID

// Workload sizes. Closed-loop scripts hold rate × seconds operations, so a
// run's length follows --seconds while its operation count never depends
// on how fast the machine is or on the seed.
const (
	quoteMarkets   = 3   // default + 2 batch-only markets
	quoteSellers   = 100 // sellers per quote market
	quoteRows      = 400
	quoteDemands   = 48
	quoteBatchK    = 10 // every quoteBatchK-th request is a batch
	quoteBatchSize = 8
	quoteRate      = 3500 // nominal closed-loop requests per second
	quoteWarmup    = 2000

	tradeMarkets = 24
	tradeSellers = 12
	tradeRows    = 300
	tradeRate    = 600 // nominal trades per second
	tradeWarmup  = 8   // per market

	// ledgerBudget is large enough that no scripted trade is ever refused.
	ledgerBudget = 1e9
)

// makeScript generates the workload's script from the seed.
func makeScript(workload string, seed int64, seconds int) (*script, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("seconds must be at least 1, got %d", seconds)
	}
	rng := rand.New(rand.NewSource(seed))
	serverSeed := rng.Int63n(1 << 40)
	var s *script
	switch workload {
	case "quote":
		s = quoteScript(rng, seconds)
	case "trade":
		s = tradeScript(rng, seconds)
	default:
		return nil, fmt.Errorf("unknown workload %q (want quote or trade)", workload)
	}
	s.ServerSeed = serverSeed
	return s, nil
}

func uniform(rng *rand.Rand, lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }

// registrations scripts m sellers joining market mi before it trades.
func registrations(rng *rand.Rand, mi, m, rows int) []op {
	out := make([]op, m)
	for i := range out {
		out[i] = op{Kind: kRegister, Market: mi, Seller: fmt.Sprintf("s%03d", i), Lambda: uniform(rng, 0.05, 1), Rows: rows}
	}
	return out
}

// quoteScript: one connection of single analytic quotes against the default
// market's 100 sellers, every quoteBatchK-th request a mean-field batch
// against any of the three markets. Nothing trades.
func quoteScript(rng *rand.Rand, seconds int) *script {
	s := &script{Workload: "quote", Conns: 1, Headline: kQuote}
	s.Markets = append(s.Markets, marketSetup{ID: defaultMarket})
	for i := 1; i < quoteMarkets; i++ {
		s.Markets = append(s.Markets, marketSetup{ID: fmt.Sprintf("q%d", i), Seed: rng.Int63n(1 << 40)})
	}
	for mi := range s.Markets {
		s.Register = append(s.Register, registrations(rng, mi, quoteSellers, quoteRows)...)
	}
	for i := 0; i < quoteDemands; i++ {
		s.Demands = append(s.Demands, httpapi.Demand{
			N: float64(100 + rng.Intn(300)), V: uniform(rng, 0.6, 0.9), Theta1: uniform(rng, 0.3, 0.7),
		})
	}
	gen := func(n int) []op {
		out := make([]op, n)
		for i := range out {
			if i%quoteBatchK == quoteBatchK-1 {
				b := make([]int, quoteBatchSize)
				for j := range b {
					b[j] = rng.Intn(quoteDemands)
				}
				out[i] = op{Kind: kBatch, Market: rng.Intn(quoteMarkets), Batch: b}
			} else {
				out[i] = op{Kind: kQuote, Demand: rng.Intn(quoteDemands)}
			}
		}
		return out
	}
	s.Warmup = gen(quoteWarmup)
	s.Closed = gen(quoteRate * seconds)
	return s
}

// tradeScript: two connections trade one fixed demand against short-ledger
// markets in turn, so every round runs all of Algorithm 1 plus a
// group-committed trade + budget_charge pair while view publication stays
// cheap.
func tradeScript(rng *rand.Rand, seconds int) *script {
	s := &script{Workload: "trade", ServerBudget: ledgerBudget, Conns: 2, Headline: kTrade, ProbeMarket: tradeMarkets - 1}
	for i := 0; i < tradeMarkets; i++ {
		s.Markets = append(s.Markets, marketSetup{ID: fmt.Sprintf("t%d", i), Seed: rng.Int63n(1 << 40), Budget: ledgerBudget})
		s.Register = append(s.Register, registrations(rng, i, tradeSellers, tradeRows)...)
	}
	// One demand for every trade, with a narrow range so the per-round
	// work barely depends on the seed.
	s.Demands = []httpapi.Demand{{N: float64(148 + rng.Intn(5)), V: uniform(rng, 0.79, 0.81)}}
	for i := 0; i < tradeMarkets; i++ {
		for j := 0; j < tradeWarmup; j++ {
			s.Warmup = append(s.Warmup, op{Kind: kTrade, Market: i})
		}
	}
	n := tradeRate * seconds
	s.Closed = make([]op, n)
	for i := range s.Closed {
		s.Closed[i] = op{Kind: kTrade, Market: i * tradeMarkets / n}
	}
	return s
}

// request is one op rendered to the wire.
type request struct {
	Method string
	Path   string
	Body   []byte
}

// render turns an op into its HTTP request.
func (s *script) render(o op) request {
	mid := s.Markets[o.Market].ID
	base := "/v2/markets/" + mid
	switch o.Kind {
	case kQuote:
		return request{"POST", "/v1/quote", mustJSON(s.Demands[o.Demand])}
	case kBatch:
		req := httpapi.QuoteBatchRequest{Demands: make([]httpapi.Demand, len(o.Batch))}
		for i, d := range o.Batch {
			req.Demands[i] = s.Demands[d]
			req.Demands[i].Solver = "meanfield"
		}
		return request{"POST", base + "/quotes", mustJSON(req)}
	case kTrade:
		return request{"POST", base + "/trades", mustJSON(s.Demands[o.Demand])}
	case kRegister:
		return request{"POST", base + "/sellers", mustJSON(httpapi.SellerRegistration{ID: o.Seller, Lambda: o.Lambda, SyntheticRows: o.Rows})}
	}
	panic(fmt.Sprintf("render: unknown kind %d", o.Kind))
}

// createBody is the POST /v2/markets body for a non-default market.
func (ms marketSetup) createBody() []byte {
	spec := httpapi.MarketSpec{ID: ms.ID, Seed: &ms.Seed}
	if ms.Budget > 0 {
		b := ms.Budget
		spec.EpsilonBudget = &b
	}
	return mustJSON(spec)
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("encoding %T: %v", v, err))
	}
	return raw
}
