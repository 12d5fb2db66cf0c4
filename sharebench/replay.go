package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"share/internal/budget"
	"share/internal/core"
	"share/internal/httpapi"
	"share/internal/market"
	"share/internal/pool"
	"share/internal/product"
	"share/internal/solve"
	"share/internal/translog"
)

// spanName labels one span: a request root or a call into one layer.
type spanName uint8

const (
	spRequest spanName = iota
	spDecode
	spEncode
	spPoolQuote
	spPoolBatch
	spPoolTrade
	spSolveClone
	spSolveAnalytic
	spSolveMeanfield
	numSpans
)

var spanNames = [numSpans]string{
	"request", "httpapi.decode", "httpapi.encode", "pool.quote", "pool.batch",
	"pool.trade", "solve.clone", "solve.analytic", "solve.meanfield",
}

// span is one timed call. Times are nanoseconds since the tracer's base;
// parent indexes the same buffer (-1 for a request root); req is the
// request's position in the closed script.
type span struct {
	name       spanName
	kind       kind
	req        int32
	parent     int32
	size       int32 // encode spans: response bytes
	start, end int64
}

// spanBuf is one goroutine's span recorder. A nil *spanBuf records nothing,
// which is how the untraced replay runs the same code.
type spanBuf struct {
	base  time.Time
	spans []span
}

func (b *spanBuf) begin(name spanName, k kind, req int, parent int32) int32 {
	if b == nil {
		return -1
	}
	b.spans = append(b.spans, span{name: name, kind: k, req: int32(req), parent: parent, start: int64(time.Since(b.base))})
	return int32(len(b.spans) - 1)
}

func (b *spanBuf) end(i int32) {
	if b != nil {
		b.spans[i].end = int64(time.Since(b.base))
	}
}

// tradeRec is one measured trade as the replay saw it.
type tradeRec struct {
	span    time.Duration // the pool.Trade call
	timings market.Timings
	eps     []float64
	pieces  []int
	sellers []pool.SellerState // roster the trade ran under
}

// replay is one in-process execution of a script through the public calls
// each HTTP handler makes, and for half the quotes and batches the solver
// calls the pool makes (see splitSolves).
type replay struct {
	s       *script
	p       *pool.Pool
	markets []*pool.Market
	traced  bool
	base    time.Time

	out      *outcome
	bufs     []*spanBuf
	trades   []tradeRec
	tradesMu sync.Mutex
	wall     time.Duration // measured closed-loop script
	states   []marketState
}

// discardLogf formats like the server's logger but writes nowhere.
var discardLogf = log.New(io.Discard, "", log.LstdFlags).Printf

// newReplay builds the pool the way share-server does: httpapi.NewServer
// with the server's seed, budget and durability on a fresh directory.
func newReplay(s *script, dir string, traced bool) (*replay, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	srv := httpapi.NewServer(httpapi.Options{
		Seed:          s.ServerSeed,
		Logf:          discardLogf,
		SnapshotDir:   dir,
		Durability:    "group",
		EpsilonBudget: s.ServerBudget,
	})
	rp := &replay{s: s, p: srv.Pool(), traced: traced, base: time.Now(), out: newOutcome()}
	if _, err := rp.p.RestoreAll(); err != nil {
		return nil, err
	}
	for _, ms := range s.Markets {
		if ms.ID == defaultMarket {
			m, err := rp.p.Get(defaultMarket)
			if err != nil {
				return nil, err
			}
			rp.markets = append(rp.markets, m)
			continue
		}
		var spec httpapi.MarketSpec
		if err := decodeBody(ms.createBody(), &spec); err != nil {
			return nil, err
		}
		m, err := rp.p.Create(pool.Spec{ID: spec.ID, Seed: spec.Seed, EpsilonBudget: spec.EpsilonBudget})
		if err != nil {
			return nil, err
		}
		rp.markets = append(rp.markets, m)
	}
	return rp, nil
}

func (rp *replay) close() { rp.p.Close() }

// run executes set-up, then the measured script on Conns goroutines
// pulling from one shared cursor. Set-up runs on one goroutine in script
// order, which keeps each market's ops in the order the served run sends
// them.
func (rp *replay) run() error {
	s := rp.s
	for _, phase := range [][]op{s.Register, s.Warmup} {
		for i, o := range phase {
			if err := rp.exec(nil, nil, i, false, o, s.render(o)); err != nil {
				return fmt.Errorf("set-up %s %d: %w", o.Kind, i, err)
			}
		}
	}
	reqs := make([]request, len(s.Closed))
	for i, o := range s.Closed {
		reqs[i] = s.render(o)
	}
	direct := splitSolves(s.Closed)
	outs := make([]*outcome, s.Conns)
	rp.bufs = make([]*spanBuf, s.Conns)
	for w := range outs {
		outs[w] = newOutcome()
		if rp.traced {
			rp.bufs[w] = &spanBuf{base: rp.base, spans: make([]span, 0, 8*len(s.Closed)/s.Conns+64)}
		}
	}
	runtime.GC()
	start := time.Now()
	var wg sync.WaitGroup
	var next atomic.Int64
	errs := make([]error, s.Conns)
	for w := range outs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				if err := rp.exec(rp.bufs[w], outs[w], i, direct[i], s.Closed[i], reqs[i]); err != nil {
					errs[w] = fmt.Errorf("%s %d: %w", s.Closed[i].Kind, i, err)
					next.Store(int64(len(reqs)))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	rp.wall = time.Since(start)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, o := range outs {
		for i, h := range o.hashes {
			rp.out.hashes[i] = h
		}
		for k, h := range o.trades {
			rp.out.trades[k] = h
		}
	}
	rp.states = rp.readStates()
	return nil
}

// splitSolves marks every other quote, and every other batch, of the
// script to call the solver layer directly: clone, set the buyer, solve.
// In the traced replay that splits pool.quote into clone, solve and the
// pool's own work, while the unmarked half times the pool calls. Every
// replay splits alike, so the untraced ones differ from it only by spans,
// and the served bodies are checked against both paths. Each kind
// alternates on its own count, since batches fall at a fixed stride.
func splitSolves(ops []op) []bool {
	var seen [numKinds]int
	direct := make([]bool, len(ops))
	for i, o := range ops {
		direct[i] = seen[o.Kind]%2 == 1
		seen[o.Kind]++
	}
	return direct
}

// readStates renders every scripted market's state the way the GET
// handlers do.
func (rp *replay) readStates() []marketState {
	out := make([]marketState, len(rp.markets))
	for i, m := range rp.markets {
		v := m.View()
		out[i].Info = m.Info()
		out[i].Weights = v.Weights
		out[i].Sellers = make([]httpapi.SellerInfo, len(v.Sellers))
		for j, st := range v.Sellers {
			out[i].Sellers[j] = sellerInfoOf(st, v.Epoch)
		}
	}
	return out
}

// exec replays one request: decode the body into its wire type, build the
// buyer, call the pool, encode the wire response. b records spans (nil =
// untraced), out collects body hashes (nil = set-up). A direct quote or
// batch calls the solver layer instead of the pool (see splitSolves).
func (rp *replay) exec(b *spanBuf, out *outcome, i int, direct bool, o op, req request) error {
	ctx := context.Background()
	m := rp.markets[o.Market]
	root := b.begin(spRequest, o.Kind, i, -1)
	var buf bytes.Buffer
	var resp any
	round := 0
	switch o.Kind {
	case kQuote:
		var d httpapi.Demand
		sp := b.begin(spDecode, o.Kind, i, root)
		err := decodeBody(req.Body, &d)
		b.end(sp)
		if err != nil {
			return err
		}
		buyer := buyerOf(d)
		var prof *core.Profile
		name := d.Solver
		if direct {
			if name == "" {
				name = m.Solver()
			}
			proto := m.View().Protos[name]
			if proto == nil {
				return fmt.Errorf("no %s prototype", name)
			}
			prof, err = rp.solveDirect(b, o.Kind, i, root, proto, buyer)
		} else {
			sp = b.begin(spPoolQuote, o.Kind, i, root)
			prof, name, err = m.Quote(ctx, buyer, d.Solver)
			b.end(sp)
		}
		if err != nil {
			return err
		}
		resp = quoteOf(prof, name)
	case kBatch:
		var qr httpapi.QuoteBatchRequest
		sp := b.begin(spDecode, o.Kind, i, root)
		err := decodeBody(req.Body, &qr)
		b.end(sp)
		if err != nil {
			return err
		}
		batch := make([]pool.BatchDemand, len(qr.Demands))
		for j, d := range qr.Demands {
			batch[j] = pool.BatchDemand{Buyer: buyerOf(d), Solver: d.Solver}
		}
		res := httpapi.QuoteBatchResult{Quotes: make([]httpapi.Quote, len(batch))}
		if direct {
			v := m.View()
			for j, bd := range batch {
				proto := v.Protos[bd.Solver]
				if proto == nil {
					return fmt.Errorf("no %s prototype", bd.Solver)
				}
				prof, err := rp.solveDirect(b, o.Kind, i, root, proto, bd.Buyer)
				if err != nil {
					return err
				}
				res.Quotes[j] = quoteOf(prof, bd.Solver)
			}
		} else {
			sp = b.begin(spPoolBatch, o.Kind, i, root)
			profs, names, err := m.QuoteBatch(ctx, batch)
			b.end(sp)
			if err != nil {
				return err
			}
			for j, p := range profs {
				res.Quotes[j] = quoteOf(p, names[j])
			}
		}
		resp = res
	case kTrade:
		var d httpapi.Demand
		sp := b.begin(spDecode, o.Kind, i, root)
		err := decodeBody(req.Body, &d)
		b.end(sp)
		if err != nil {
			return err
		}
		buyer := buyerOf(d)
		sp = b.begin(spPoolTrade, o.Kind, i, root)
		t0 := time.Now()
		tx, err := m.Trade(ctx, buyer, product.OLS{}, nil)
		d0 := time.Since(t0)
		b.end(sp)
		if err != nil {
			return err
		}
		if out != nil && b != nil {
			rp.tradesMu.Lock()
			rp.trades = append(rp.trades, tradeRec{span: d0, timings: tx.Timings, eps: tx.Epsilons, pieces: tx.Pieces, sellers: m.View().Sellers})
			rp.tradesMu.Unlock()
		}
		round = tx.Round
		resp = tradeResultOf(tx)
	case kRegister:
		var reg httpapi.SellerRegistration
		if err := decodeBody(req.Body, &reg); err != nil {
			return err
		}
		st, err := m.RegisterSeller(pool.Registration{ID: reg.ID, Lambda: reg.Lambda, Rows: reg.Rows, Targets: reg.Targets, SyntheticRows: reg.SyntheticRows})
		if err != nil {
			return err
		}
		if fresh, epoch, err := m.Seller(st.ID); err == nil {
			resp = sellerInfoOf(fresh, epoch)
		} else {
			resp = httpapi.SellerInfo{ID: st.ID, Lambda: st.Lambda, Rows: st.Rows, Weight: st.Weight}
		}
	}
	if resp != nil {
		sp := b.begin(spEncode, o.Kind, i, root)
		err := encodeBody(&buf, resp)
		b.end(sp)
		if err != nil {
			return err
		}
		if b != nil {
			b.spans[sp].size = int32(buf.Len())
		}
	}
	switch {
	case out == nil:
	case o.Kind == kTrade:
		out.trades[tradeKey{o.Market, round}] = maphash.Bytes(bodySeed, stableBody(kTrade, buf.Bytes()))
	default:
		out.hashes[i] = maphash.Bytes(bodySeed, buf.Bytes())
	}
	b.end(root)
	return nil
}

// solveDirect is what pool.Quote does with a prototype, called layer by
// layer: clone, set the buyer, solve.
func (rp *replay) solveDirect(b *spanBuf, k kind, i int, root int32, proto solve.Prepared, buyer core.Buyer) (*core.Profile, error) {
	sp := b.begin(spSolveClone, k, i, root)
	prep := proto.Clone()
	b.end(sp)
	prep.SetBuyer(buyer)
	name := spSolveAnalytic
	if proto.Backend().Name() == "meanfield" {
		name = spSolveMeanfield
	}
	sp = b.begin(name, k, i, root)
	prof, err := prep.Solve(context.Background())
	b.end(sp)
	return prof, err
}

// writeSpans writes every recorded span as CSV: worker, index, parent,
// request, kind, name, start and end in ns.
func (rp *replay) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "worker,index,parent,req,kind,name,start_ns,end_ns")
	for wi, b := range rp.bufs {
		if b == nil {
			continue
		}
		for si, sp := range b.spans {
			fmt.Fprintf(w, "%d,%d,%d,%d,%s,%s,%d,%d\n", wi, si, sp.parent, sp.req, sp.kind, spanNames[sp.name], sp.start, sp.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probes are the end-of-phase measurements that repeat one public call.
type probes struct {
	saveMs       float64
	restoreMs    float64
	precomputeUs float64
	checkUs      float64
	quoteAllocKB float64
}

// probeReps is how many times each end-of-phase probe repeats; medians are
// reported.
const probeReps = 5

// runProbes measures the repeated-call probes on the replay's final state.
func (rp *replay) runProbes(work, killedDir string) (probes, error) {
	var pr probes
	m := rp.markets[rp.s.ProbeMarket]

	times := make([]float64, probeReps)
	path := filepath.Join(work, "probe-save.json")
	for r := range times {
		t0 := time.Now()
		if err := m.Save(path); err != nil {
			return pr, err
		}
		times[r] = msSince(t0)
	}
	pr.saveMs = median(times)

	for r := range times {
		dir := filepath.Join(work, "probe-restore")
		if err := copyDir(killedDir, dir); err != nil {
			return pr, err
		}
		srv := httpapi.NewServer(httpapi.Options{Seed: rp.s.ServerSeed, Logf: discardLogf, SnapshotDir: dir, Durability: "group", EpsilonBudget: rp.s.ServerBudget})
		t0 := time.Now()
		ids, err := srv.Pool().RestoreAll()
		times[r] = msSince(t0)
		srv.Pool().Close()
		if err != nil {
			return pr, err
		}
		if len(ids) < len(rp.s.Markets) {
			return pr, fmt.Errorf("restore probe: restored %d of %d markets", len(ids), len(rp.s.Markets))
		}
	}
	pr.restoreMs = median(times)

	// Precompute: every backend over the market's current game, which is
	// what each view publication pays.
	v := m.View()
	lambdas := make([]float64, len(v.Sellers))
	for i, st := range v.Sellers {
		lambdas[i] = st.Lambda
	}
	g := &core.Game{Buyer: core.PaperBuyer(), Broker: core.Broker{Cost: translog.PaperDefaults(), Weights: v.Weights}, Sellers: core.Sellers{Lambda: lambdas}}
	const precomputeBatch = 50
	for r := range times {
		t0 := time.Now()
		for j := 0; j < precomputeBatch; j++ {
			for _, name := range solve.Names() {
				be, err := solve.Lookup(name)
				if err != nil {
					return pr, err
				}
				if _, err := be.Precompute(g); err != nil {
					return pr, err
				}
			}
		}
		times[r] = usSince(t0) / precomputeBatch
	}
	pr.precomputeUs = median(times)

	// Budget check + charge: replay each measured trade's ε vector on a
	// shadow ledger, the way the market admits and then commits a round.
	if len(rp.trades) > 0 {
		for r := range times {
			l, err := budget.NewLedger(budget.Config{Epsilon: ledgerBudget})
			if err != nil {
				return pr, err
			}
			t0 := time.Now()
			for _, tr := range rp.trades {
				ids := make([]string, 0, len(tr.sellers))
				eps := make([]float64, 0, len(tr.sellers))
				for j, st := range tr.sellers {
					if j < len(tr.pieces) && tr.pieces[j] > 0 && tr.eps[j] > 0 {
						ids = append(ids, st.ID)
						eps = append(eps, tr.eps[j])
					}
				}
				if err := l.Check(ids, eps); err != nil {
					return pr, err
				}
				l.Charge(ids, eps)
			}
			times[r] = usSince(t0) / float64(len(rp.trades))
		}
		pr.checkUs = median(times)
	}

	// Allocation per pool quote, over repeated quotes on the final view.
	if rp.s.Headline == kQuote {
		q := rp.markets[0]
		const n = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for j := 0; j < n; j++ {
			if _, _, err := q.Quote(context.Background(), buyerOf(rp.s.Demands[j%len(rp.s.Demands)]), ""); err != nil {
				return pr, err
			}
		}
		runtime.ReadMemStats(&after)
		pr.quoteAllocKB = float64(after.TotalAlloc-before.TotalAlloc) / n / 1024
	}
	return pr, nil
}

// checkSNE verifies, for each distinct single-quote demand of the closed
// script, that the market's analytic solution is a Stackelberg-Nash
// equilibrium (paper Def. 4.2).
func (rp *replay) checkSNE() error {
	seen := make(map[int]bool)
	m := rp.markets[0]
	proto := m.View().Protos["analytic"]
	for _, o := range rp.s.Closed {
		if o.Kind != kQuote || seen[o.Demand] {
			continue
		}
		seen[o.Demand] = true
		prep := proto.Clone()
		prep.SetBuyer(buyerOf(rp.s.Demands[o.Demand]))
		prof, err := prep.Solve(context.Background())
		if err != nil {
			return err
		}
		if err := prep.Game().CheckSNE(prof, 0); err != nil {
			return fmt.Errorf("demand %d: %w", o.Demand, err)
		}
	}
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
func usSince(t time.Time) float64 { return float64(time.Since(t)) / 1e3 }
