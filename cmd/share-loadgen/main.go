// Command share-loadgen drives saturating traffic at a share-server and
// reports what the admission layer did about it.
//
// It sets up M markets, registers sellers in each, and runs two timed
// phases:
//
//	unloaded   closed-loop quote (and batch-quote) workers only — the
//	           latency baseline.
//	loaded     the same quote workload with closed-loop trade flooders
//	           hammering every market's write path at the same time.
//
// Trades are deliberately pushed past each market's admission envelope
// (one slot, no waiting room by default), so a healthy run shows a
// non-zero 429 rejection rate while the quote percentiles stay close to
// the unloaded baseline — the overload-isolation contract, measured.
//
// Usage:
//
//	share-loadgen [-addr URL] [-out DIR] [-markets N] [-sellers N]
//	              [-quote-workers N] [-trade-workers N] [-churn N]
//	              [-duration D] [-quote-rate R] [-batch N] [-trade-queue N]
//	              [-trade-concurrency N] [-seed N]
//
// With no -addr the tool self-hosts an in-process server on a loopback
// listener (with a cheap weight update so trades are fast); point -addr at
// a running share-server to load a real deployment. Quote workers are
// closed-loop by default; -quote-rate R > 0 switches them to open-loop at R
// requests/second each, exposing queueing delay instead of hiding it.
// During the loaded phase, churn workers join and release sellers in a
// tight loop, so the quote percentiles are measured against a roster that
// never stops moving. Results — per-phase latency percentiles, throughput,
// trade rejection rates, churn counts, the quote-p99 degradation ratio and
// the server's own admission counters — are written to DIR/loadgen.json.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"share/internal/httpapi"
	"share/internal/parallel"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("share-loadgen: ")

	var (
		addr      = flag.String("addr", "", "server base URL (empty = self-host an in-process server)")
		outDir    = flag.String("out", "bench_out", "output directory for loadgen.json")
		markets   = flag.Int("markets", 4, "number of markets to create and load")
		sellers   = flag.Int("sellers", 4, "sellers registered per market")
		rows      = flag.Int("rows", 1500, "synthetic rows per seller (sets per-trade cost)")
		prod      = flag.String("product", "logistic", "data product trades manufacture (ols is cheap, logistic is expensive)")
		tradeN    = flag.Float64("trade-n", 6000, "demanded data quantity per trade (sets per-trade manufacturing cost)")
		quoteW    = flag.Int("quote-workers", 2, "closed-loop quote workers per market")
		tradeW    = flag.Int("trade-workers", 1, "trade flooders per market (loaded phase)")
		burst     = flag.Int("trade-burst", 2, "concurrent trade attempts per flooder burst")
		pause     = flag.Duration("trade-pause", 500*time.Millisecond, "flooder think time between bursts")
		duration  = flag.Duration("duration", 3*time.Second, "length of each timed phase")
		quoteRate = flag.Float64("quote-rate", 0, "open-loop quotes/second per quote worker (0 = closed loop)")
		batchN    = flag.Int("batch", 4, "batch-quote size (every 5th quote issues a batch; 0 disables)")
		queue     = flag.Int("trade-queue", 0, "per-market trade waiting room (spec override)")
		conc      = flag.Int("trade-concurrency", 1, "per-market in-flight trade cap (spec override)")
		churnW    = flag.Int("churn", 1, "roster-churn workers per market (loaded phase; 0 disables)")
		seed      = flag.Int64("seed", 1, "server seed (self-hosted only)")
	)
	flag.Parse()
	if *markets < 1 || *sellers < 1 || *quoteW < 1 || *tradeW < 1 || *burst < 1 {
		log.Fatal("-markets, -sellers, -quote-workers, -trade-workers and -trade-burst must all be at least 1")
	}

	base := *addr
	var shutdown func()
	if base == "" {
		var err error
		base, shutdown, err = selfHost(*seed)
		if err != nil {
			log.Fatalf("self-hosting: %v", err)
		}
		defer shutdown()
		log.Printf("self-hosted server at %s", base)
	}

	rep, err := run(base, config{
		Markets:          *markets,
		Sellers:          *sellers,
		Rows:             *rows,
		Product:          *prod,
		TradeN:           *tradeN,
		TradeBurst:       *burst,
		TradePause:       *pause,
		QuoteWorkers:     *quoteW,
		TradeWorkers:     *tradeW,
		ChurnWorkers:     *churnW,
		DurationSeconds:  duration.Seconds(),
		QuoteRate:        *quoteRate,
		Batch:            *batchN,
		TradeQueue:       *queue,
		TradeConcurrency: *conc,
		Seed:             *seed,
		SelfHosted:       *addr == "",
	}, *duration)
	if err != nil {
		log.Fatal(err)
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatalf("creating %s: %v", *outDir, err)
	}
	path := filepath.Join(*outDir, "loadgen.json")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", path)
	if !rep.SLO.Within2x {
		log.Fatalf("SLO violated: loaded quote p99 %.2fms is %.2fx the unloaded %.2fms (want <= 2x)",
			rep.SLO.LoadedQuoteP99Ms, rep.SLO.Ratio, rep.SLO.UnloadedQuoteP99Ms)
	}
}

// selfHost starts an in-process server on an ephemeral loopback port with
// the paper-default weight update, so trades carry their real manufacturing
// cost.
func selfHost(seed int64) (baseURL string, shutdown func(), err error) {
	srv := httpapi.NewServer(httpapi.Options{
		Seed: seed,
		Logf: func(string, ...any) {},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	shutdown = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		srv.Pool().Close()
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}

// config echoes the run parameters into the report.
type config struct {
	Markets          int           `json:"markets"`
	Sellers          int           `json:"sellers_per_market"`
	Rows             int           `json:"rows_per_seller"`
	Product          string        `json:"trade_product"`
	TradeN           float64       `json:"trade_demand_n"`
	TradeBurst       int           `json:"trade_burst"`
	TradePause       time.Duration `json:"trade_pause_ns"`
	QuoteWorkers     int           `json:"quote_workers_per_market"`
	TradeWorkers     int           `json:"trade_workers_per_market"`
	ChurnWorkers     int           `json:"churn_workers_per_market"`
	DurationSeconds  float64       `json:"phase_duration_seconds"`
	QuoteRate        float64       `json:"quote_rate_per_worker"`
	Batch            int           `json:"batch_quote_size"`
	TradeQueue       int           `json:"trade_queue"`
	TradeConcurrency int           `json:"trade_concurrency"`
	Seed             int64         `json:"seed"`
	SelfHosted       bool          `json:"self_hosted"`
}

// latStats summarizes one latency series.
type latStats struct {
	Count      int     `json:"count"`
	PerSec     float64 `json:"per_sec"`
	MeanMs     float64 `json:"mean_ms"`
	P50Ms      float64 `json:"p50_ms"`
	P90Ms      float64 `json:"p90_ms"`
	P99Ms      float64 `json:"p99_ms"`
	MaxMs      float64 `json:"max_ms"`
	Errors     int     `json:"errors,omitempty"`
	LastErrMsg string  `json:"last_error,omitempty"`
}

// tradeStats extends latStats with the admission outcomes.
type tradeStats struct {
	latStats
	Rejected      int     `json:"rejected_429"`
	Drained       int     `json:"drained_503"`
	RejectionRate float64 `json:"rejection_rate"`
}

// churnStats counts one phase's roster churn: completed join/leave pairs
// against live markets while the quote and trade workload runs.
type churnStats struct {
	Joins      int    `json:"joins"`
	Leaves     int    `json:"leaves"`
	Errors     int    `json:"errors,omitempty"`
	LastErrMsg string `json:"last_error,omitempty"`
}

// phaseStats is one timed phase's client-side view.
type phaseStats struct {
	Quotes      latStats    `json:"quotes"`
	BatchQuotes *latStats   `json:"batch_quotes,omitempty"`
	Trades      *tradeStats `json:"trades,omitempty"`
	Churn       *churnStats `json:"churn,omitempty"`
}

// sloStats is the headline acceptance number: quote p99 under saturating
// trade load versus unloaded.
type sloStats struct {
	UnloadedQuoteP99Ms float64 `json:"quote_p99_unloaded_ms"`
	LoadedQuoteP99Ms   float64 `json:"quote_p99_loaded_ms"`
	Ratio              float64 `json:"ratio"`
	Within2x           bool    `json:"within_2x"`
}

// marketCounters is the server's own admission accounting for one market.
type marketCounters struct {
	Admitted uint64 `json:"trades_admitted"`
	Rejected uint64 `json:"trades_rejected"`
}

// report is the loadgen.json document.
type report struct {
	GoMaxProcs int                       `json:"gomaxprocs"`
	Config     config                    `json:"config"`
	Unloaded   phaseStats                `json:"unloaded"`
	Loaded     phaseStats                `json:"loaded"`
	SLO        sloStats                  `json:"slo"`
	Server     map[string]marketCounters `json:"server_admission"`
}

// sampler collects one worker's latency series without sharing: each
// worker owns its sampler by index, and series are merged only after the
// phase barrier.
type sampler struct {
	lats    []time.Duration
	errs    int
	lastErr string
}

func (s *sampler) ok(d time.Duration) { s.lats = append(s.lats, d) }
func (s *sampler) fail(err error)     { s.errs++; s.lastErr = err.Error() }
func (s *sampler) merge(o *sampler) {
	s.lats = append(s.lats, o.lats...)
	s.errs += o.errs
	if o.lastErr != "" {
		s.lastErr = o.lastErr
	}
}

func (s *sampler) stats(window time.Duration) latStats {
	st := latStats{Count: len(s.lats), Errors: s.errs, LastErrMsg: s.lastErr}
	if window > 0 {
		st.PerSec = round2(float64(len(s.lats)) / window.Seconds())
	}
	if len(s.lats) == 0 {
		return st
	}
	sort.Slice(s.lats, func(i, j int) bool { return s.lats[i] < s.lats[j] })
	var sum time.Duration
	for _, d := range s.lats {
		sum += d
	}
	st.MeanMs = ms(sum / time.Duration(len(s.lats)))
	st.P50Ms = ms(pct(s.lats, 0.50))
	st.P90Ms = ms(pct(s.lats, 0.90))
	st.P99Ms = ms(pct(s.lats, 0.99))
	st.MaxMs = ms(s.lats[len(s.lats)-1])
	return st
}

func pct(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func ms(d time.Duration) float64 { return round2(float64(d) / float64(time.Millisecond)) }
func round2(v float64) float64   { return float64(int(v*100+0.5)) / 100 }
func marketID(i int) string      { return fmt.Sprintf("lg-%02d", i) }

func run(base string, cfg config, phaseLen time.Duration) (*report, error) {
	ctx := context.Background()
	c := httpapi.NewClient(base, &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 256,
		},
	})
	if _, err := c.Health(ctx); err != nil {
		return nil, fmt.Errorf("server not reachable: %w", err)
	}

	// Setup: M markets with a deliberately tight admission envelope, each
	// with its own seller roster.
	log.Printf("setting up %d markets x %d sellers (admission %d slot(s), queue %d)",
		cfg.Markets, cfg.Sellers, cfg.TradeConcurrency, cfg.TradeQueue)
	for i := 0; i < cfg.Markets; i++ {
		conc, queue := cfg.TradeConcurrency, cfg.TradeQueue
		spec := httpapi.MarketSpec{ID: marketID(i), TradeConcurrency: &conc, TradeQueue: &queue}
		if _, err := c.CreateMarket(ctx, spec); err != nil {
			return nil, fmt.Errorf("creating %s: %w", spec.ID, err)
		}
		for s := 0; s < cfg.Sellers; s++ {
			reg := httpapi.SellerRegistration{
				ID:            fmt.Sprintf("s%02d", s),
				Lambda:        0.25 + 0.1*float64(s),
				SyntheticRows: cfg.Rows,
			}
			if _, err := c.RegisterSellerIn(ctx, spec.ID, reg); err != nil {
				return nil, fmt.Errorf("registering %s/%s: %w", spec.ID, reg.ID, err)
			}
		}
	}

	rep := &report{GoMaxProcs: runtime.GOMAXPROCS(0), Config: cfg}

	log.Printf("phase unloaded: %v of quotes only", phaseLen)
	rep.Unloaded = runPhase(c, cfg, phaseLen, false)
	log.Printf("phase loaded:   %v of quotes + saturating trades", phaseLen)
	rep.Loaded = runPhase(c, cfg, phaseLen, true)

	rep.SLO.UnloadedQuoteP99Ms = rep.Unloaded.Quotes.P99Ms
	rep.SLO.LoadedQuoteP99Ms = rep.Loaded.Quotes.P99Ms
	if rep.SLO.UnloadedQuoteP99Ms > 0 {
		rep.SLO.Ratio = round2(rep.SLO.LoadedQuoteP99Ms / rep.SLO.UnloadedQuoteP99Ms)
	}
	rep.SLO.Within2x = rep.SLO.Ratio <= 2.0

	// The server's own admission accounting closes the loop on the
	// client-side 429 counts.
	if snap, err := c.Metrics(ctx); err == nil {
		rep.Server = make(map[string]marketCounters, cfg.Markets)
		for i := 0; i < cfg.Markets; i++ {
			id := marketID(i)
			rep.Server[id] = marketCounters{
				Admitted: snap.Counters["market/"+id+"/trades_admitted"],
				Rejected: snap.Counters["market/"+id+"/trades_rejected"],
			}
		}
	}

	log.Printf("quotes: unloaded p99 %.2fms, loaded p99 %.2fms (%.2fx)",
		rep.SLO.UnloadedQuoteP99Ms, rep.SLO.LoadedQuoteP99Ms, rep.SLO.Ratio)
	if tr := rep.Loaded.Trades; tr != nil {
		log.Printf("trades: %d committed, %d rejected 429 (rate %.2f), %.1f/s",
			tr.Count, tr.Rejected, tr.RejectionRate, tr.PerSec)
	}
	if ch := rep.Loaded.Churn; ch != nil {
		log.Printf("churn: %d joins, %d leaves, %d errors", ch.Joins, ch.Leaves, ch.Errors)
	}
	return rep, nil
}

// runPhase runs one timed window: quote workers across every market, plus
// (when loaded) closed-loop trade flooders and roster-churn workers. Every
// worker owns its sampler by index — parallel.ForWorker gives each exactly
// one — so the hot loops share nothing.
func runPhase(c *httpapi.Client, cfg config, phaseLen time.Duration, loaded bool) phaseStats {
	nQuote := cfg.Markets * cfg.QuoteWorkers
	nTrade, nChurn := 0, 0
	if loaded {
		nTrade = cfg.Markets * cfg.TradeWorkers
		nChurn = cfg.Markets * cfg.ChurnWorkers
	}
	quoteS := make([]sampler, nQuote)
	batchS := make([]sampler, nQuote)
	tradeS := make([]sampler, nTrade)
	rejected := make([]int, nTrade)
	drained := make([]int, nTrade)
	churnS := make([]churnStats, nChurn)

	deadline := time.Now().Add(phaseLen)
	total := nQuote + nTrade + nChurn
	parallel.ForWorker(total, total, func(_, i int) {
		switch {
		case i < nQuote:
			quoteWorker(c, marketID(i%cfg.Markets), cfg, deadline, &quoteS[i], &batchS[i])
		case i < nQuote+nTrade:
			j := i - nQuote
			tradeWorker(c, marketID(j%cfg.Markets), cfg, deadline, &tradeS[j], &rejected[j], &drained[j])
		default:
			j := i - nQuote - nTrade
			churnWorker(c, marketID(j%cfg.Markets), j, cfg, deadline, &churnS[j])
		}
	})

	var quotes, batches sampler
	for i := range quoteS {
		quotes.merge(&quoteS[i])
		batches.merge(&batchS[i])
	}
	ps := phaseStats{Quotes: quotes.stats(phaseLen)}
	if cfg.Batch > 0 {
		bs := batches.stats(phaseLen)
		ps.BatchQuotes = &bs
	}
	if loaded {
		var trades sampler
		rej, dr := 0, 0
		for i := range tradeS {
			trades.merge(&tradeS[i])
			rej += rejected[i]
			dr += drained[i]
		}
		ts := &tradeStats{latStats: trades.stats(phaseLen), Rejected: rej, Drained: dr}
		if attempts := ts.Count + rej + dr + ts.Errors; attempts > 0 {
			ts.RejectionRate = round2(float64(rej) / float64(attempts))
		}
		ps.Trades = ts
	}
	if nChurn > 0 {
		total := churnStats{}
		for i := range churnS {
			total.Joins += churnS[i].Joins
			total.Leaves += churnS[i].Leaves
			total.Errors += churnS[i].Errors
			if churnS[i].LastErrMsg != "" {
				total.LastErrMsg = churnS[i].LastErrMsg
			}
		}
		ps.Churn = &total
	}
	return ps
}

// churnWorker cycles one transient seller through its market until the
// deadline: join, breathe, leave, breathe. Against a trading market each
// cycle precomputes the game for a new roster twice while quote workers
// read the copy-on-write views — the churn-vs-quote isolation story under
// real HTTP load. Seller IDs carry the global worker index, so concurrent
// churners in one market never collide.
func churnWorker(c *httpapi.Client, id string, worker int, cfg config, deadline time.Time, s *churnStats) {
	const pause = 50 * time.Millisecond
	for n := 0; time.Now().Before(deadline); n++ {
		ctx, cancel := context.WithDeadline(context.Background(), deadline.Add(10*time.Second))
		sid := fmt.Sprintf("churn-%02d-%d", worker, n)
		reg := httpapi.SellerRegistration{ID: sid, Lambda: 0.3 + 0.05*float64(n%8), SyntheticRows: 60}
		if _, err := c.RegisterSellerIn(ctx, id, reg); err != nil {
			s.Errors++
			s.LastErrMsg = err.Error()
			cancel()
			time.Sleep(pause)
			continue
		}
		s.Joins++
		time.Sleep(pause)
		if err := c.RemoveSellerIn(ctx, id, sid); err != nil {
			s.Errors++
			s.LastErrMsg = err.Error()
		} else {
			s.Leaves++
		}
		cancel()
		time.Sleep(pause)
	}
}

// quoteWorker issues quotes against one market until the deadline: every
// 5th iteration is a batch quote (when enabled), the rest single quotes.
// Quotes are idempotent, so they ride through the opt-in Retry helper —
// overload pushback on reads (none is expected today) would be honored
// rather than surfaced.
func quoteWorker(c *httpapi.Client, id string, cfg config, deadline time.Time, single, batch *sampler) {
	demand := httpapi.Demand{N: 100, V: 0.8}
	var tick *time.Ticker
	if cfg.QuoteRate > 0 {
		tick = time.NewTicker(time.Duration(float64(time.Second) / cfg.QuoteRate))
		defer tick.Stop()
	}
	policy := httpapi.RetryPolicy{Attempts: 2, Base: 5 * time.Millisecond, Max: 50 * time.Millisecond}
	for n := 0; time.Now().Before(deadline); n++ {
		if tick != nil {
			<-tick.C
			if !time.Now().Before(deadline) {
				return
			}
		}
		ctx, cancel := context.WithDeadline(context.Background(), deadline.Add(5*time.Second))
		t0 := time.Now()
		var err error
		isBatch := cfg.Batch > 0 && n%5 == 4
		if isBatch {
			demands := make([]httpapi.Demand, cfg.Batch)
			for i := range demands {
				demands[i] = httpapi.Demand{N: 80 + 10*float64(i), V: 0.8}
			}
			err = httpapi.Retry(ctx, policy, func(ctx context.Context) error {
				_, e := c.QuoteBatch(ctx, id, demands)
				return e
			})
		} else {
			err = httpapi.Retry(ctx, policy, func(ctx context.Context) error {
				_, e := c.QuoteIn(ctx, id, demand)
				return e
			})
		}
		d := time.Since(t0)
		cancel()
		s := single
		if isBatch {
			s = batch
		}
		if err != nil {
			s.fail(err)
			continue
		}
		s.ok(d)
	}
}

// tradeWorker floods one market until the deadline. Each cycle fires a
// burst of concurrent trade attempts — deliberately more than the market's
// admission envelope — then pauses for the flooder's think time. Trades are
// NOT retried (they are not idempotent): a 429 is counted against the
// rejection rate and the worker backs off for the server's Retry-After
// hint, capped at 2s so a long run keeps generating pressure. This is the
// well-behaved-overdemanding-client story: attempted load exceeds capacity
// every burst, admitted load stays at what the market accepted.
func tradeWorker(c *httpapi.Client, id string, cfg config, deadline time.Time, s *sampler, rejected, drained *int) {
	type result struct {
		d   time.Duration
		err error
	}
	for time.Now().Before(deadline) {
		results := make(chan result, cfg.TradeBurst)
		for b := 0; b < cfg.TradeBurst; b++ {
			go func() {
				ctx, cancel := context.WithDeadline(context.Background(), deadline.Add(30*time.Second))
				defer cancel()
				t0 := time.Now()
				_, err := c.TradeIn(ctx, id, httpapi.Demand{N: cfg.TradeN, V: 0.8, Product: cfg.Product})
				results <- result{time.Since(t0), err}
			}()
		}
		wait := cfg.TradePause
		for b := 0; b < cfg.TradeBurst; b++ {
			r := <-results
			if r.err == nil {
				s.ok(r.d)
				continue
			}
			var se *httpapi.StatusError
			switch {
			case errors.As(r.err, &se) && se.Code == http.StatusTooManyRequests:
				*rejected++
				if h := backoff(se.RetryAfter); h > wait {
					wait = h
				}
			case errors.As(r.err, &se) && se.Code == http.StatusServiceUnavailable:
				*drained++
				if h := backoff(se.RetryAfter); h > wait {
					wait = h
				}
			default:
				s.fail(r.err)
			}
		}
		time.Sleep(wait)
	}
}

// backoff bounds a server Retry-After hint for the flooder: at least a
// breath (the server may have sent nothing), at most 2s so the flood keeps
// flooding.
func backoff(hint time.Duration) time.Duration {
	if hint < 2*time.Millisecond {
		return 2 * time.Millisecond
	}
	if hint > 2*time.Second {
		return 2 * time.Second
	}
	return hint
}
