package pool

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"share/internal/solve"
)

// TestTradeAllocsFlatInLedgerLength: a trade allocates for its own round
// only, however long the market has traded. Publishing the post-trade view
// once deep-copied the whole ledger, so a market's 250th trade allocated
// about three times as much as its 20th.
func TestTradeAllocsFlatInLedgerLength(t *testing.T) {
	p := New(quietOptions())
	m, err := p.Create(Spec{ID: "long"})
	if err != nil {
		t.Fatal(err)
	}
	register(t, m, 12)
	ctx := context.Background()
	mallocs := make([]uint64, 250)
	var before, after runtime.MemStats
	for r := range mallocs {
		runtime.ReadMemStats(&before)
		_, err := m.Trade(ctx, demoBuyer(90, 0.8), nil, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("round %d: %v", r+1, err)
		}
		mallocs[r] = after.Mallocs - before.Mallocs
	}
	mean := func(xs []uint64) float64 {
		var sum uint64
		for _, x := range xs {
			sum += x
		}
		return float64(sum) / float64(len(xs))
	}
	early, late := mean(mallocs[10:60]), mean(mallocs[200:250])
	if math.Abs(late-early) > 0.02*early {
		t.Fatalf("mean mallocs per trade grew with the ledger: rounds 11-60 %.1f, rounds 201-250 %.1f", early, late)
	}
}

// raceEnabled reports a race-detector build (set in race_test.go).
var raceEnabled bool

// TestTradeBytesPerRound: a persisted trade on a budgeted 12-seller market
// allocates for its round, its view and the WAL record it appends — not
// for copies of it. Each record was once encoded twice (the payload,
// then the wal.Record wrapping it) and copied out of the encoder both
// times, each round cloned the market's solver prototype, and every publish
// rebuilt each seller's ε-gauge name: 19,680 B per trade in all, against
// about 10,900 B without them. Under the race detector the trades still
// run, through the encoder and the kept gauges, but the bound is not
// checked.
func TestTradeBytesPerRound(t *testing.T) {
	const bound = 12 << 10
	opts := fastWalOptions(t.TempDir())
	opts.Update = nil // the paper's update, as the server runs it
	opts.Durability = string(DurGroup)
	opts.EpsilonBudget = 1e18
	p := New(opts)
	defer p.Close()
	m, err := p.Create(Spec{ID: "bytes"})
	if err != nil {
		t.Fatal(err)
	}
	register(t, m, 12)
	ctx := context.Background()
	var before, after runtime.MemStats
	var total uint64
	for r := 1; r <= 210; r++ {
		runtime.ReadMemStats(&before)
		_, err := m.Trade(ctx, demoBuyer(90, 0.8), nil, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if r > 10 {
			total += after.TotalAlloc - before.TotalAlloc
		}
	}
	mean := float64(total) / 200
	t.Logf("mean allocation per trade over rounds 11-210: %.0f B", mean)
	if mean > bound && !raceEnabled {
		t.Fatalf("mean allocation per trade over rounds 11-210 is %.0f B, want at most %d B", mean, bound)
	}
}

// TestPublishedViewStaysImmutable: views share the inner market's committed
// transactions instead of copying them, so a view handed out earlier must
// render the same after every later kind of mutation — trades, a mid-life
// join and leave, a budget top-up, a WAL compaction and SaveAll — while a
// reader serves the live ledger the way GET /v2/markets/{id}/trades does.
// (internal/httpapi imports this package, so the route is served here by a
// stand-in that reads View().Trades like the real handler.) Run under -race
// in make race.
func TestPublishedViewStaysImmutable(t *testing.T) {
	dir := t.TempDir()
	opts := fastWalOptions(dir)
	opts.EpsilonBudget = 1e18
	p := New(opts)
	defer p.Close()
	m, err := p.Create(Spec{ID: "imm"})
	if err != nil {
		t.Fatal(err)
	}
	register(t, m, 3)
	ctx := context.Background()
	round := 0
	trade := func() error {
		round++
		_, err := m.Trade(ctx, demoBuyer(80+float64(round), 0.8), nil, nil)
		return err
	}
	for i := 0; i < 2; i++ {
		if err := trade(); err != nil {
			t.Fatal(err)
		}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /v2/markets/{id}/trades", func(w http.ResponseWriter, r *http.Request) {
		mk, err := p.Get(r.PathValue("id"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		if err := json.NewEncoder(w).Encode(mk.View().Trades); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := srv.Client().Get(srv.URL + "/v2/markets/imm/trades")
			if err != nil {
				t.Errorf("listing trades: %v", err)
				return
			}
			var trades []json.RawMessage
			err = json.NewDecoder(resp.Body).Decode(&trades)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || err != nil || len(trades) < 2 {
				t.Errorf("listing trades: status %d, %d trades, decode error %v", resp.StatusCode, len(trades), err)
				return
			}
		}
	}()

	snapSeq := func() uint64 {
		snap, err := ReadSnapshotFile(filepath.Join(dir, "imm.json"))
		if err != nil {
			return 0
		}
		return snap.WalSeq
	}
	steps := []struct {
		name string
		do   func() error
	}{
		{"trades", func() error {
			for i := 0; i < 2; i++ {
				if err := trade(); err != nil {
					return err
				}
				if i == 0 { // the market's 6th record
					compactNow(t, m)
				}
			}
			return nil
		}},
		{"mid-life join", func() error {
			_, err := m.RegisterSeller(Registration{ID: "j01", Lambda: 0.45, SyntheticRows: 60})
			return err
		}},
		{"leave", func() error { return m.RemoveSeller("s01") }},
		{"budget top-up", func() error {
			_, err := m.TopUpBudget("s02", 5)
			return err
		}},
		{"compaction", func() error {
			seq := snapSeq()
			for i := 0; i < 2; i++ {
				if err := trade(); err != nil {
					return err
				}
			}
			compactNow(t, m) // the 6th record since the last compaction
			if snapSeq() == seq {
				return fmt.Errorf("compaction left the snapshot's wal_seq at %d", seq)
			}
			return nil
		}},
		{"SaveAll", p.SaveAll},
	}
	type held struct {
		v    *View
		want string
	}
	v0 := m.View()
	views := []held{{v0, canonicalView(t, v0)}}
	for _, st := range steps {
		if err := st.do(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		for i, h := range views {
			if got := canonicalView(t, h.v); got != h.want {
				t.Fatalf("view %d (%d trades) changed after %s\n got: %.300s\nwant: %.300s", i, len(h.v.Trades), st.name, got, h.want)
			}
		}
		v := m.View()
		views = append(views, held{v, canonicalView(t, v)})
	}
}

// TestViewsBindTheCommittedGame: every backend's prototype on a published
// view is bound to the inner market's committed game, with no copy per
// backend, and the view shares that game's weight vector — after trades,
// a mid-life join and a leave. Each publication once cloned and
// precomputed the game for every backend, and churn re-prepared those
// copies on a path of its own: a trade on this market (no persistence,
// 12 sellers × 300 rows, the paper's weight update) allocated 7,179 B in
// 75.4 mallocs on average, against 4,588 B in 48.4 with one shared game.
// Under the race detector the bound is not checked.
func TestViewsBindTheCommittedGame(t *testing.T) {
	const bound = 5632 // 5.5 KiB
	p := New(quietOptions())
	m, err := p.Create(Spec{ID: "bind"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := m.RegisterSeller(Registration{ID: fmt.Sprintf("s%02d", i+1), Lambda: 0.2 + 0.05*float64(i), SyntheticRows: 300}); err != nil {
			t.Fatal(err)
		}
	}
	checkShared := func(when string) {
		t.Helper()
		v := m.View()
		g := m.mkt.Prototype().Game()
		if len(v.Protos) != len(solve.Names()) {
			t.Fatalf("%s: the view holds %d prototypes, want one per backend %v", when, len(v.Protos), solve.Names())
		}
		for name, proto := range v.Protos {
			if proto.Backend().Name() != name {
				t.Errorf("%s: the view's %s prototype runs %s", when, name, proto.Backend().Name())
			}
			if proto.Game() != g {
				t.Errorf("%s: the view's %s prototype holds a game of its own, not the committed one", when, name)
			}
		}
		if len(v.Weights) != len(v.Sellers) || &v.Weights[0] != &g.Broker.Weights[0] {
			t.Errorf("%s: the view's weights are not the committed game's", when)
		}
	}
	ctx := context.Background()
	var before, after runtime.MemStats
	var bytes, mallocs uint64
	for r := 1; r <= 60; r++ {
		runtime.ReadMemStats(&before)
		_, err := m.Trade(ctx, demoBuyer(90, 0.8), nil, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if r > 10 {
			bytes += after.TotalAlloc - before.TotalAlloc
			mallocs += after.Mallocs - before.Mallocs
		}
	}
	checkShared("after 60 trades")
	if _, err := m.RegisterSeller(Registration{ID: "joiner", Lambda: 0.5, SyntheticRows: 300}); err != nil {
		t.Fatal(err)
	}
	checkShared("after a mid-life join")
	if err := m.RemoveSeller("s03"); err != nil {
		t.Fatal(err)
	}
	checkShared("after a leave")

	mean := float64(bytes) / 50
	t.Logf("mean allocation per trade over rounds 11-60: %.0f B in %.1f mallocs", mean, float64(mallocs)/50)
	if mean > bound && !raceEnabled {
		t.Fatalf("mean allocation per trade over rounds 11-60 is %.0f B, want at most %d B", mean, bound)
	}
}
