package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"share/internal/core"
	"share/internal/market"
	"share/internal/pool"
)

// pr6Report is the BENCH_PR6.json document: trade throughput and commit
// latency of the write-ahead log's durability modes — sync, group commit
// and async — at two market sizes, with the WAL's own counters (records,
// bytes, fsyncs, largest commit batch) alongside each run.
type pr6Report struct {
	GoMaxProcs int           `json:"gomaxprocs"`
	Trades     int           `json:"trades_per_scenario"`
	Traders    int           `json:"concurrent_traders"`
	Scenarios  []pr6Scenario `json:"scenarios"`
}

// pr6Scenario is one (market size, durability mode) cell.
type pr6Scenario struct {
	Sellers      int     `json:"sellers"`
	Durability   string  `json:"durability"`
	TradesPerSec float64 `json:"trades_per_sec"`
	CommitP50Ms  float64 `json:"commit_p50_ms"`
	CommitP90Ms  float64 `json:"commit_p90_ms"`
	CommitP99Ms  float64 `json:"commit_p99_ms"`
	WALRecords   uint64  `json:"wal_records"`
	WALBytes     uint64  `json:"wal_bytes"`
	WALFsyncs    uint64  `json:"wal_fsyncs"`
	WALBatchMax  int64   `json:"wal_batch_max"`
}

// writeBenchPR6 measures every durability mode end to end — real pool, real
// disk, concurrent traders — and writes BENCH_PR6.json into outDir. Each
// scenario gets a fresh pool over a fresh temp directory so the WAL
// counters isolate cleanly; the seller roster is persisted and the counters
// re-based before the timed window so only the trade path is measured.
func writeBenchPR6(outDir string, seed int64) error {
	const (
		trades  = 30
		traders = 4
	)
	rep := &pr6Report{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Trades:     trades,
		Traders:    traders,
	}
	modes := []pool.Durability{pool.DurSync, pool.DurGroup, pool.DurAsync}
	for _, m := range []int{20, 100} {
		for _, mode := range modes {
			sc, err := runPR6Scenario(m, mode, trades, traders, seed)
			if err != nil {
				return fmt.Errorf("bench-pr6: m=%d %s: %w", m, mode, err)
			}
			rep.Scenarios = append(rep.Scenarios, sc)
			log.Printf("bench pr6 m=%-3d %-8s %8.1f trades/s  commit p50 %6.2fms p99 %6.2fms  fsyncs %d batch<=%d",
				m, mode, sc.TradesPerSec, sc.CommitP50Ms, sc.CommitP99Ms, sc.WALFsyncs, sc.WALBatchMax)
		}
	}

	path := filepath.Join(outDir, "BENCH_PR6.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	log.Printf("wrote %s", path)
	return nil
}

// runPR6Scenario trades `trades` rounds through a market of m sellers under
// one durability mode, with `traders` goroutines posting demands
// concurrently so group commit actually has batches to merge.
func runPR6Scenario(m int, mode pool.Durability, trades, traders int, seed int64) (pr6Scenario, error) {
	sc := pr6Scenario{Sellers: m, Durability: string(mode)}
	dir, err := os.MkdirTemp("", "share-bench-pr6-")
	if err != nil {
		return sc, err
	}
	defer os.RemoveAll(dir)

	p := pool.New(pool.Options{
		Seed:        seed,
		SnapshotDir: dir,
		Durability:  string(mode),
		Update:      &market.WeightUpdate{Retain: 0.2, Permutations: 8, TruncateTol: 0.005},
		Logf:        func(string, ...any) {},
	})
	defer p.Close()
	mkt, err := p.Create(pool.Spec{ID: "bench"})
	if err != nil {
		return sc, err
	}
	for i := 0; i < m; i++ {
		if _, err := mkt.RegisterSeller(pool.Registration{
			ID:            fmt.Sprintf("s%03d", i+1),
			Lambda:        0.2 + 0.6*float64(i)/float64(m),
			SyntheticRows: 300,
		}); err != nil {
			return sc, err
		}
	}
	// Re-base the WAL counters so the report covers the trade window only,
	// not the roster registrations above.
	base := p.Metrics().Snapshot()

	latencies := make([]time.Duration, trades)
	next := make(chan int)
	var wg sync.WaitGroup
	var firstErr error
	var errOnce sync.Once
	start := time.Now()
	for w := 0; w < traders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				buyer := core.PaperBuyer()
				buyer.N, buyer.V = 80+float64(i%7)*10, 0.8
				t0 := time.Now()
				_, err := mkt.Trade(context.Background(), buyer, nil, nil)
				latencies[i] = time.Since(t0)
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
			}
		}()
	}
	for i := 0; i < trades; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return sc, firstErr
	}

	snap := p.Metrics().Snapshot()
	sc.TradesPerSec = float64(trades) / elapsed.Seconds()
	sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
	quantile := func(q float64) float64 {
		idx := int(q * float64(len(latencies)))
		if idx >= len(latencies) {
			idx = len(latencies) - 1
		}
		return float64(latencies[idx]) / float64(time.Millisecond)
	}
	sc.CommitP50Ms = quantile(0.50)
	sc.CommitP90Ms = quantile(0.90)
	sc.CommitP99Ms = quantile(0.99)
	sc.WALRecords = snap.Counters["wal/records"] - base.Counters["wal/records"]
	sc.WALBytes = snap.Counters["wal/bytes"] - base.Counters["wal/bytes"]
	sc.WALFsyncs = snap.Counters["wal/fsyncs"] - base.Counters["wal/fsyncs"]
	sc.WALBatchMax = snap.Gauges["wal/batch_max"]
	return sc, nil
}
