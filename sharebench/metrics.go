package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// endToEnd names the metrics a --trace 0 run reports, in order.
var endToEnd = []struct{ Name, Unit string }{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"alloc_kb_per_op", "KiB"},
}

// perLayer names the metrics a --trace 1 run reports, in order.
var perLayer = []struct{ Name, Unit string }{
	{"httpapi.decode_us", "us"},
	{"httpapi.encode_us", "us"},
	{"httpapi.response_bytes", "bytes"},
	{"httpapi.transport_us", "us"},
	{"pool.quote_us", "us"},
	{"pool.quote_self_us", "us"},
	{"pool.batch_us", "us"},
	{"pool.quote_alloc_kb", "KiB"},
	{"pool.trade_us", "us"},
	{"pool.trade_self_us", "us"},
	{"pool.queue_wait_us", "us"},
	{"pool.ledger_len", "count"},
	{"pool.save_ms", "ms"},
	{"pool.restore_ms", "ms"},
	{"market.round_us", "us"},
	{"market.commit_us", "us"},
	{"solve.clone_us", "us"},
	{"solve.analytic_us", "us"},
	{"solve.meanfield_us", "us"},
	{"solve.strategy_us", "us"},
	{"solve.precompute_us", "us"},
	{"ldp.data_tx_us", "us"},
	{"product.production_us", "us"},
	{"valuation.weight_update_us", "us"},
	{"budget.check_charge_us", "us"},
	{"wal.records_per_trade", "count"},
	{"wal.bytes_per_trade", "bytes"},
	{"wal.fsyncs_per_trade", "count"},
	{"wal.fsync_us", "us"},
	{"wal.batch_max", "count"},
	{"share-server.req_p50_ms", "ms"},
	{"share-server.cpu_ms_per_op", "ms"},
	{"share-server.recovery_s", "s"},
	{"share-server.mallocs_per_op", "count"},
	{"share-server.gc_per_kop", "count"},
	{"bench.cpu_ms_per_op", "ms"},
	{"bench.trace_overhead_pct", "%"},
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; 0 for no samples. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// latencies picks the samples of one kind, in ms.
func latencies(ss []sample, k kind) []float64 {
	var out []float64
	for _, s := range ss {
		if s.kind == k {
			out = append(out, ms(s.lat))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// spanDurations collects the durations, in µs, of every span with the given
// name and request kind.
func spanDurations(bufs []*spanBuf, name spanName, k kind) []float64 {
	var out []float64
	for _, b := range bufs {
		if b == nil {
			continue
		}
		for _, sp := range b.spans {
			if sp.name == name && sp.kind == k {
				out = append(out, float64(sp.end-sp.start)/1e3)
			}
		}
	}
	return out
}

// e2eMetrics assembles a --trace 0 run's end-to-end metrics from the
// served run. The served timings other than set-up are in the report lines
// and among the per-layer metrics, not gated (see README.md).
func e2eMetrics(sr *served) []metric {
	return named(endToEnd, map[string]float64{
		"setup_s":         median(sr.setupS),
		"heap_mb":         float64(sr.mem1.HeapAlloc) / 1e6,
		"alloc_kb_per_op": allocKBPerOp(sr),
	})
}

// allocKBPerOp is the server's allocation over the phase per closed-loop
// request completed, in KiB.
func allocKBPerOp(sr *served) float64 {
	return float64(sr.mem1.TotalAlloc-sr.mem0.TotalAlloc) / float64(sr.done) / 1024
}

// named lays values out in the order and with the units of a metric list.
func named(list []struct{ Name, Unit string }, values map[string]float64) []metric {
	out := make([]metric, len(list))
	for i, m := range list {
		v, ok := values[m.Name]
		if !ok {
			panic("no value for metric " + m.Name)
		}
		out[i] = metric{Name: m.Name, Unit: m.Unit, Value: v}
	}
	if len(values) != len(list) {
		panic(fmt.Sprintf("%d values for %d metrics", len(values), len(list)))
	}
	return out
}

// layerMetrics assembles a --trace 1 run's per-layer metrics. A layer that
// does no work in the workload's measured phase reports 0.
func layerMetrics(s *script, sr *served, base, tr *replay, pr probes) []metric {
	hk := s.Headline
	med := func(name spanName, k kind) float64 { return quantile(spanDurations(tr.bufs, name, k), 0.5) }
	var sizes []float64
	for _, b := range tr.bufs {
		for _, sp := range b.spans {
			if sp.name == spEncode && sp.kind == hk {
				sizes = append(sizes, float64(sp.size))
			}
		}
	}
	decode, encode := med(spDecode, hk), med(spEncode, hk)
	quoteUs, tradeUs := med(spPoolQuote, kQuote), 0.0
	var tradeSelf, round, commit, strategy, dataTx, production, weights []float64
	for _, t := range tr.trades {
		tm := t.timings
		tradeSelf = append(tradeSelf, us(t.span-tm.Total))
		round = append(round, us(tm.Total))
		commit = append(commit, us(tm.Total-tm.Strategy-tm.DataTransaction-tm.Production-tm.WeightUpdate))
		strategy = append(strategy, us(tm.Strategy))
		dataTx = append(dataTx, us(tm.DataTransaction))
		production = append(production, us(tm.Production))
		weights = append(weights, us(tm.WeightUpdate))
	}
	if len(tr.trades) > 0 {
		spans := make([]float64, len(tr.trades))
		for i, t := range tr.trades {
			spans[i] = us(t.span)
		}
		tradeUs = quantile(spans, 0.5)
	}
	poolHead := quoteUs
	if hk == kTrade {
		poolHead = tradeUs
	}
	quoteSelf := 0.0
	if quoteUs > 0 {
		quoteSelf = quoteUs - med(spSolveClone, kQuote) - med(spSolveAnalytic, kQuote)
	}
	reqP50 := quantile(latencies(sr.samples, hk), 0.5)

	// WAL and admission figures come from the server's own registry at the
	// timed phase's boundaries.
	m0, m1 := sr.met0, sr.met1
	nTrades := float64(len(latencies(sr.samples, kTrade)))
	perTrade := func(name string) float64 {
		if nTrades == 0 {
			return 0
		}
		return counterDelta(m0, m1, name) / nTrades
	}
	fsyncUs := 1e6 * meanOver(m0, m1, "wal/fsync", float64(m0.Counters["wal/fsyncs"]), float64(m1.Counters["wal/fsyncs"]))
	var waitSum, waitN float64
	for _, m := range s.Markets {
		admitted := "market/" + m.ID + "/trades_admitted"
		n0, n1 := float64(m0.Counters[admitted]), float64(m1.Counters[admitted])
		waitSum += meanOver(m0, m1, "market/"+m.ID+"/queue_wait", n0, n1) * (n1 - n0)
		waitN += n1 - n0
	}
	queueWait := 0.0
	if waitN > 0 {
		queueWait = 1e6 * waitSum / waitN
	}

	h := s.ProbeMarket
	ops := float64(sr.done)
	return named(perLayer, map[string]float64{
		"httpapi.decode_us":           decode,
		"httpapi.encode_us":           encode,
		"httpapi.response_bytes":      quantile(sizes, 0.5),
		"httpapi.transport_us":        reqP50*1e3 - decode - poolHead - encode,
		"pool.quote_us":               quoteUs,
		"pool.quote_self_us":          quoteSelf,
		"pool.batch_us":               med(spPoolBatch, kBatch),
		"pool.quote_alloc_kb":         pr.quoteAllocKB,
		"pool.trade_us":               tradeUs,
		"pool.trade_self_us":          quantile(tradeSelf, 0.5),
		"pool.queue_wait_us":          queueWait,
		"pool.ledger_len":             float64(tr.states[h].Info.Trades),
		"pool.save_ms":                pr.saveMs,
		"pool.restore_ms":             pr.restoreMs,
		"market.round_us":             quantile(round, 0.5),
		"market.commit_us":            quantile(commit, 0.5),
		"solve.clone_us":              med(spSolveClone, kQuote),
		"solve.analytic_us":           med(spSolveAnalytic, kQuote),
		"solve.meanfield_us":          med(spSolveMeanfield, kBatch),
		"solve.strategy_us":           quantile(strategy, 0.5),
		"solve.precompute_us":         pr.precomputeUs,
		"ldp.data_tx_us":              quantile(dataTx, 0.5),
		"product.production_us":       quantile(production, 0.5),
		"valuation.weight_update_us":  quantile(weights, 0.5),
		"budget.check_charge_us":      pr.checkUs,
		"wal.records_per_trade":       perTrade("wal/records"),
		"wal.bytes_per_trade":         perTrade("wal/bytes"),
		"wal.fsyncs_per_trade":        perTrade("wal/fsyncs"),
		"wal.fsync_us":                fsyncUs,
		"wal.batch_max":               float64(m1.Gauges["wal/batch_max"]),
		"share-server.req_p50_ms":     reqP50,
		"share-server.cpu_ms_per_op":  ms(sr.serverCPU) / ops,
		"share-server.recovery_s":     median(sr.recoveryS),
		"share-server.mallocs_per_op": float64(sr.mem1.Mallocs-sr.mem0.Mallocs) / ops,
		"share-server.gc_per_kop":     float64((sr.mem1.NumGC-sr.mem0.NumGC)-(sr.mem1.NumForcedGC-sr.mem0.NumForcedGC)) / ops * 1e3,
		"bench.cpu_ms_per_op":         ms(sr.benchCPU) / ops,
		"bench.trace_overhead_pct":    100 * (float64(tr.wall) - float64(base.wall)) / float64(base.wall),
	})
}

// report prints the workload's end-to-end figures under the names of the
// benchmark's design, with sample counts, before the JSON result line.
func report(s *script, seed int64, trace int, sr *served) {
	fmt.Printf("sharebench workload=%s seed=%d trace=%d conns=%d ops=%d phase_s=%.3f\n",
		s.Workload, seed, trace, s.Conns, len(s.Closed), sr.wall.Seconds())
	line := func(name, unit string, v float64, n int) {
		fmt.Printf("  %-20s %12.4f %-5s n=%d\n", name, v, unit, n)
	}
	line("setup_s", "s", median(sr.setupS), len(sr.setupS))
	if q := latencies(sr.samples, kQuote); len(q) > 0 {
		line("quote_p50_ms", "ms", quantile(q, 0.5), len(q))
		line("quote_p90_ms", "ms", quantile(q, 0.9), len(q))
	}
	if b := latencies(sr.samples, kBatch); len(b) > 0 {
		line("batch_p50_ms", "ms", quantile(b, 0.5), len(b))
	}
	if t := latencies(sr.samples, kTrade); len(t) > 0 {
		line("trade_p50_ms", "ms", quantile(t, 0.5), len(t))
		line("trade_p90_ms", "ms", quantile(t, 0.9), len(t))
		line("trades_per_s", "1/s", float64(len(t))/sr.wall.Seconds(), len(t))
	}
	line("cpu_ms_per_op", "ms", ms(sr.serverCPU)/float64(sr.done), sr.done)
	line("heap_mb", "MB", float64(sr.mem1.HeapAlloc)/1e6, 1)
	line("alloc_kb_per_op", "KiB", allocKBPerOp(sr), sr.done)
	line("recovery_s", "s", median(sr.recoveryS), len(sr.recoveryS))
	line("bench.cpu_ms_per_op", "ms", ms(sr.benchCPU)/float64(sr.done), sr.done)
	fmt.Printf("  attempted=%d failed=%d\n", sr.attempted, sr.failed)
}
