package pool

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"share/internal/market"
)

// TestHeldBytesPerTrade: a persisted market keeps its committed
// transactions on disk, so the heap it holds grows by no more than where
// each round lies. The slope of the live heap between 1,000 and 3,000
// trades on a 12-seller × 300-row market must be at most 100 B per trade;
// holding every transaction in memory cost about 1,650 B. The log crosses
// the compaction trigger on the way, so rounds move from frames into the
// snapshot as well. Under the race detector the bound is not checked.
func TestHeldBytesPerTrade(t *testing.T) {
	const bound = 100
	opts := fastWalOptions(t.TempDir())
	opts.Durability = string(DurAsync)
	p := New(opts)
	defer p.Close()
	m, err := p.Create(Spec{ID: "held"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := m.RegisterSeller(Registration{ID: fmt.Sprintf("s%02d", i+1), Lambda: 0.2 + 0.05*float64(i), SyntheticRows: 300}); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var at1000 uint64
	for r := 1; r <= 3000; r++ {
		if _, err := m.Trade(ctx, demoBuyer(90, 0.8), nil, nil); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if r == 1000 {
			at1000 = heap()
		}
	}
	slope := (float64(heap()) - float64(at1000)) / 2000
	t.Logf("held heap per trade between 1,000 and 3,000 trades: %.0f B (histories moved into %d snapshot generations)", slope, m.histGen)
	if m.histGen == 0 {
		t.Error("the log never compacted: the test no longer covers rounds in the snapshot")
	}
	if slope > bound && !raceEnabled {
		t.Fatalf("held heap grows by %.0f B per trade, want at most %d B", slope, bound)
	}
}

// A historyStep is one mutation of the generated histories below.
type historyStep int

const (
	hsTrade historyStep = iota
	hsJoin
	hsLeave
	hsTopUp
	hsCompact  // compaction: checkpoint under the write lock
	hsSaveAll  // SaveAll, Close, RestoreAll
	hsReopen   // Close and RestoreAll with no SaveAll: replay the log
	hsFallback // the log fails under the market; mutations save snapshots
	numHistorySteps
)

// TestTradePagesMatchTrades: every page the trade history serves — at
// every offset and limit — holds exactly the transactions Trade returned,
// byte for byte as JSON, over generated histories of trades, joins,
// leaves, top-ups, compactions, SaveAll + Close + RestoreAll, reopening
// without SaveAll and the append-failure fallback, in each durability mode
// and in a pool without a snapshot directory.
func TestTradePagesMatchTrades(t *testing.T) {
	modes := []Durability{DurSync, DurGroup, DurAsync, ""}
	for mi, mode := range modes {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("%s/seed%d", mode, seed)
			if mode == "" {
				name = fmt.Sprintf("memory/seed%d", seed)
			}
			t.Run(name, func(t *testing.T) {
				runPageHistory(t, mode, rand.New(rand.NewSource(seed*10+int64(mi))))
			})
		}
	}
}

func runPageHistory(t *testing.T, mode Durability, rng *rand.Rand) {
	dir := t.TempDir()
	opts := fastWalOptions(dir)
	opts.EpsilonBudget = 40
	opts.DiscountFactor, opts.DiscountThreshold = 0.5, 0.1
	if mode == "" {
		opts.SnapshotDir = ""
	}
	p := New(opts)
	defer func() { p.Close() }()
	m, err := p.Create(Spec{ID: "pages", Durability: string(mode)})
	if err != nil {
		t.Fatal(err)
	}
	register(t, m, 3)
	var want []string // each committed round's transaction as JSON
	joined := 0
	ctx := context.Background()
	for step := 0; step < 30; step++ {
		op := hsTrade
		if step > 2 && rng.Intn(2) == 0 {
			op = historyStep(rng.Intn(int(numHistorySteps)))
		}
		if mode == "" && op >= hsCompact {
			op = hsTrade
		}
		switch op {
		case hsTrade:
			tx, err := m.Trade(ctx, demoBuyer(70+float64(rng.Intn(60)), 0.8), nil, nil)
			if err != nil {
				t.Fatalf("step %d trade: %v", step, err)
			}
			want = append(want, txJSON(t, tx))
		case hsJoin:
			joined++
			if _, err := m.RegisterSeller(Registration{ID: fmt.Sprintf("j%02d", joined), Lambda: 0.45, SyntheticRows: 40}); err != nil {
				t.Fatalf("step %d join: %v", step, err)
			}
		case hsLeave:
			if v := m.View(); len(v.Sellers) > 2 {
				if err := m.RemoveSeller(v.Sellers[rng.Intn(len(v.Sellers))].ID); err != nil {
					t.Fatalf("step %d leave: %v", step, err)
				}
			}
		case hsTopUp:
			v := m.View()
			if _, err := m.TopUpBudget(v.Sellers[rng.Intn(len(v.Sellers))].ID, 1.5); err != nil {
				t.Fatalf("step %d top-up: %v", step, err)
			}
		case hsCompact:
			compactNow(t, m)
		case hsSaveAll, hsReopen:
			if op == hsSaveAll {
				if err := p.SaveAll(); err != nil {
					t.Fatal(err)
				}
			}
			p.Close()
			p = New(opts)
			if _, err := p.RestoreAll(); err != nil {
				t.Fatalf("step %d restore: %v", step, err)
			}
			if m, err = p.Get("pages"); err != nil {
				t.Fatal(err)
			}
		case hsFallback:
			m.writeMu.Lock()
			if m.log != nil {
				m.log.Close()
			}
			m.writeMu.Unlock()
		}
		checkPage(t, m, want, 0, len(want), fmt.Sprintf("step %d (%d)", step, op))
	}
	for lo := 0; lo <= len(want); lo++ {
		for hi := lo; hi <= len(want); hi++ {
			checkPage(t, m, want, lo, hi, "the final history")
		}
	}
}

// txJSON is tx's encoding: the bytes a page's transaction must encode to.
func txJSON(t *testing.T, tx *market.Transaction) string {
	t.Helper()
	raw, err := json.Marshal(tx)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// checkPage requires m's page of rounds lo+1 through hi to encode as want's.
func checkPage(t *testing.T, m *Market, want []string, lo, hi int, when string) {
	t.Helper()
	if got := len(m.View().Trades); got != len(want) {
		t.Fatalf("%s: %d trades, want %d", when, got, len(want))
	}
	page, err := m.Trades(lo, hi)
	if err != nil {
		t.Fatalf("%s: page %d..%d: %v", when, lo, hi, err)
	}
	if len(page) != hi-lo {
		t.Fatalf("%s: page %d..%d holds %d transactions", when, lo, hi, len(page))
	}
	for i, tx := range page {
		if got := txJSON(t, tx); got != want[lo+i] {
			t.Fatalf("%s: round %d of page %d..%d differs\n got: %.300s\nwant: %.300s", when, lo+i+1, lo, hi, got, want[lo+i])
		}
	}
}

// TestPagesReadDuringTradesAndCompactions: pages read while trades append
// and compactions move the history hold exactly the committed
// transactions. Readers page through every round the published view
// holds, so they read rounds whose Commit has not run yet and whose record
// still sits in the log's buffer (wal.TestReadFrameFlushesBufferedRecord
// pins that read on its own). Run under -race in make race.
func TestPagesReadDuringTradesAndCompactions(t *testing.T) {
	for _, mode := range []Durability{DurGroup, DurAsync} {
		t.Run(string(mode), func(t *testing.T) {
			opts := fastWalOptions(t.TempDir())
			p := New(opts)
			defer p.Close()
			m, err := p.Create(Spec{ID: "live", Durability: string(mode)})
			if err != nil {
				t.Fatal(err)
			}
			register(t, m, 3)
			var read sync.Map // round → the JSON a reader read for it
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(r)))
					for {
						select {
						case <-stop:
							return
						default:
						}
						n := len(m.View().Trades)
						if n == 0 {
							continue
						}
						lo := rng.Intn(n)
						if r == 0 {
							lo = n - 1 // the newest round, its record perhaps buffered
						}
						hi := lo + 1 + rng.Intn(n-lo)
						page, err := m.Trades(lo, hi)
						if err != nil {
							t.Errorf("page %d..%d: %v", lo, hi, err)
							return
						}
						for i, tx := range page {
							if tx.Round != lo+i+1 {
								t.Errorf("page %d..%d holds round %d at %d", lo, hi, tx.Round, lo+i)
								return
							}
							read.Store(tx.Round, txJSON(t, tx))
						}
					}
				}(r)
			}
			ctx := context.Background()
			var want []string
			for i := 0; i < 40; i++ {
				tx, err := m.Trade(ctx, demoBuyer(80+float64(i%7), 0.8), nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, txJSON(t, tx))
				if i%9 == 8 {
					m.writeMu.Lock()
					if err := m.checkpointLocked(); err != nil {
						t.Error(err)
					}
					m.writeMu.Unlock()
				}
			}
			close(stop)
			wg.Wait()
			read.Range(func(round, got any) bool {
				if got != want[round.(int)-1] {
					t.Errorf("a reader read round %d as %.200s, the trade returned %.200s", round, got, want[round.(int)-1])
				}
				return true
			})
		})
	}
}

// TestPagesReadWithoutWriteLock: a page read never takes the market's
// write lock, so it completes while a round holds it.
func TestPagesReadWithoutWriteLock(t *testing.T) {
	p := New(fastWalOptions(t.TempDir()))
	defer p.Close()
	m, err := p.Create(Spec{ID: "nolock"})
	if err != nil {
		t.Fatal(err)
	}
	register(t, m, 3)
	for i := 0; i < 4; i++ {
		if _, err := m.Trade(context.Background(), demoBuyer(90, 0.8), nil, nil); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			compactNow(t, m) // two rounds in the snapshot, two in frames
		}
	}
	m.writeMu.Lock()
	defer m.writeMu.Unlock()
	done := make(chan error, 1)
	go func() {
		_, err := m.Trades(0, 4)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a page read waited for the write lock")
	}
}

// TestUnreadableHistoryIsTyped: trade-history bytes that cannot be read or
// do not hold the round — a damaged frame, a damaged snapshot element, a
// closed snapshot — give an error wrapping ErrHistory, never a panic, and
// a compaction over them fails instead of writing a snapshot.
func TestUnreadableHistoryIsTyped(t *testing.T) {
	dir := t.TempDir()
	opts := fastWalOptions(dir)
	opts.Durability = string(DurSync)
	p := New(opts)
	defer p.Close()
	m, err := p.Create(Spec{ID: "bad"})
	if err != nil {
		t.Fatal(err)
	}
	register(t, m, 3)
	trade := func() {
		t.Helper()
		if _, err := m.Trade(context.Background(), demoBuyer(90, 0.8), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	trade()
	trade()
	compactNow(t, m) // rounds 1-2 in the snapshot
	trade()          // round 3 in a frame
	damage := func(path string, off int64) {
		t.Helper()
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("xx"), off); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	v := m.View()
	damage(filepath.Join(dir, "bad"+walExt), v.Trades[2].off+20)
	damage(filepath.Join(dir, "bad"+snapshotExt), v.Trades[0].off)
	for _, round := range []int{1, 3} {
		if _, err := m.Trades(round-1, round); !errors.Is(err, ErrHistory) {
			t.Errorf("round %d: error %v, want ErrHistory", round, err)
		}
	}
	if page, err := m.Trades(1, 2); err != nil || len(page) != 1 || page[0].Round != 2 {
		t.Errorf("an undamaged round: %v", err)
	}
	if _, err := m.Trades(2, 5); !errors.Is(err, ErrHistory) {
		t.Errorf("a page past the history: %v, want ErrHistory", err)
	}
	m.writeMu.Lock()
	err = m.checkpointLocked()
	m.writeMu.Unlock()
	if !errors.Is(err, ErrHistory) {
		t.Errorf("compaction over a damaged history: %v, want ErrHistory", err)
	}
	p.Close()
	if _, err := m.Trades(0, 1); !errors.Is(err, ErrHistory) {
		t.Errorf("after Close: %v, want ErrHistory", err)
	}
}

// TestSellerRendersOneEntry: Seller renders the one entry asked for, from
// the view's inputs, exactly as the whole roster renders it — weights,
// budgets, spends and discounts — over generated rosters with mid-life
// joins, leaves and top-ups, before and after trading starts.
func TestSellerRendersOneEntry(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		opts := fastWalOptions("")
		opts.SnapshotDir = ""
		if seed%2 == 0 {
			opts.EpsilonBudget = 30
		}
		if seed > 2 {
			opts.DiscountFactor, opts.DiscountThreshold = 0.5, 0.1
		}
		p := New(opts)
		m, err := p.Create(Spec{ID: "one"})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		check := func(when string) {
			t.Helper()
			v := m.View()
			for _, want := range v.Sellers {
				got, epoch, err := m.Seller(want.ID)
				if err != nil || got != want || epoch != v.Epoch {
					t.Fatalf("seed %d %s: Seller(%q) = %+v at epoch %d (%v), the roster renders %+v at %d", seed, when, want.ID, got, epoch, err, want, v.Epoch)
				}
			}
			if _, _, err := m.Seller("nobody"); !errors.Is(err, ErrSellerNotFound) {
				t.Fatalf("seed %d %s: an unknown seller: %v", seed, when, err)
			}
		}
		for step := 0; step < 16; step++ {
			v := m.View()
			switch op := rng.Intn(4); {
			case op == 0 || len(v.Sellers) < 2:
				n++
				if _, err := m.RegisterSeller(Registration{ID: fmt.Sprintf("s%02d", n), Lambda: 0.25 + 0.05*float64(rng.Intn(8)), SyntheticRows: 30 + rng.Intn(30)}); err != nil {
					t.Fatal(err)
				}
			case op == 1 && len(v.Sellers) > 2:
				if err := m.RemoveSeller(v.Sellers[rng.Intn(len(v.Sellers))].ID); err != nil {
					t.Fatal(err)
				}
			case op == 2 && opts.EpsilonBudget > 0:
				if _, err := m.TopUpBudget(v.Sellers[rng.Intn(len(v.Sellers))].ID, 2); err != nil {
					t.Fatal(err)
				}
			default:
				if _, err := m.Trade(context.Background(), demoBuyer(90, 0.8), nil, nil); err != nil {
					t.Fatal(err)
				}
			}
			check(fmt.Sprintf("step %d", step))
		}
		p.Close()
	}
}

// TestInMemoryRegistrationBytes: a registration in a pool without a
// snapshot directory writes no record, so it builds none — the record's
// row headers alone once cost 32 KB of a 400-row registration's 55 KB.
// Under the race detector the bound is not checked.
func TestInMemoryRegistrationBytes(t *testing.T) {
	const bound = 28 << 10
	p := New(quietOptions())
	m, err := p.Create(Spec{ID: "mem"})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	var total uint64
	const regs = 10
	for i := 0; i < regs; i++ {
		runtime.ReadMemStats(&before)
		_, err := m.RegisterSeller(Registration{ID: fmt.Sprintf("s%02d", i), Lambda: 0.5, SyntheticRows: 400})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		total += after.TotalAlloc - before.TotalAlloc
	}
	mean := total / regs
	t.Logf("mean allocation per 400-row registration: %d B", mean)
	if mean > bound && !raceEnabled {
		t.Fatalf("a 400-row in-memory registration allocates %d B, want at most %d B", mean, bound)
	}
}
