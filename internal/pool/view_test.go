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
	"slices"
	"sort"
	"sync"
	"testing"

	"share/internal/solve"
	"share/internal/stat"
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
// allocates for its round, its unrendered view and the WAL record it
// appends — not for copies of it. Each record was once encoded twice (the
// payload, then the wal.Record wrapping it) and copied out of the encoder
// both times, each round cloned the market's solver prototype, and every
// publish rebuilt each seller's ε-gauge name: 19,680 B per trade in all,
// against about 10,900 B without them. Rendering every published view's
// roster and prototypes, and the round's temporaries (the remainder sort,
// the normalized Shapley values, the LDP meter and a copy of the weights),
// cost another 1,700 B: 4,683 B per trade against 2,978 B without them.
// Under the race detector the trades still run, through the encoder and
// the kept gauges, but the bound is not checked.
func TestTradeBytesPerRound(t *testing.T) {
	const bound = 3840 // 3.75 KiB
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
// stand-in that pages through Market.Trades like the real handler.) Run
// under -race
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
		trades, err := mk.Trades(0, len(mk.View().Trades))
		if err == nil {
			err = json.NewEncoder(w).Encode(trades)
		}
		if err != nil {
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
	views := []held{{v0, canonicalView(t, m, v0)}}
	for _, st := range steps {
		if err := st.do(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		for i, h := range views {
			if got := canonicalView(t, m, h.v); got != h.want {
				t.Fatalf("view %d (%d trades) changed after %s\n got: %.300s\nwant: %.300s", i, len(h.v.Trades), st.name, got, h.want)
			}
		}
		v := m.View()
		views = append(views, held{v, canonicalView(t, m, v)})
	}
}

// TestViewsBindTheCommittedGame: every backend's prototype on a published
// view is bound to the inner market's committed game, with no copy per
// backend, and the view shares that game's weight vector — after trades,
// a mid-life join and a leave. Each publication once cloned and
// precomputed the game for every backend, and churn re-prepared those
// copies on a path of its own: a trade on this market (no persistence,
// 12 sellers × 300 rows, the paper's weight update) allocated 7,179 B in
// 75.4 mallocs on average, against 4,588 B in 48.4 with one shared game,
// and 4,115 B in 41.4 while each publication still rendered its roster and
// bound its prototypes; a view now binds them on first read, and the round
// takes its temporaries from its scratch. Under the race detector the
// bound is not checked.
func TestViewsBindTheCommittedGame(t *testing.T) {
	const bound = 3328 // 3.25 KiB
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

// lateReadOp is one step of a generated history; r picks the step's
// seller, demand or amount from the market's state when it runs.
type lateReadOp struct {
	kind int
	r    [2]float64
}

const (
	opTrade = iota
	opTopUp
	opJoin
	opLeave
	opCompact
	opSaveAll
	opRestore
	numLateReadOps
)

// renderedView is what a view serves once read: its epoch and ledger
// length, its rendered roster (%v prints each float in the shortest form
// that reads back exactly), its prototypes' names and the bits of the
// quotes they answer.
func renderedView(v *View) string {
	names := make([]string, 0, len(v.Protos))
	for name := range v.Protos {
		names = append(names, name)
	}
	sort.Strings(names)
	return fmt.Sprintf("epoch %d, %d trades, sellers %v, protos %v;", v.Epoch, len(v.Trades), v.Sellers, names) + canonicalQuotes(v)
}

// runLateReadHistory runs ops on a budgeted, discounting market that
// persists into a directory of its own, after three registrations, and
// returns the rendering of every view the history published, in order.
// With eager set each view is read as soon as it is published. Otherwise
// each is held unread and read once the whole history has run, except
// every third, which four goroutines read first at once, as soon as it is
// published. The history keeps its own list of the roster's IDs, so that
// choosing a seller reads no view.
func runLateReadHistory(t *testing.T, ops []lateReadOp, eager bool) []string {
	t.Helper()
	opts := fastWalOptions(t.TempDir())
	opts.EpsilonBudget = 50 // small enough for a top-up to change it
	opts.DiscountFactor, opts.DiscountThreshold = 0.5, 0.5
	p := New(opts)
	defer func() { p.Close() }()
	m, err := p.Create(Spec{ID: "h"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	var held []*View
	capture := func() {
		switch {
		case eager:
			got = append(got, renderedView(m.View()))
		case len(held)%3 != 2:
			held = append(held, m.view.Load())
		default:
			reads := make([]string, 4)
			var wg sync.WaitGroup
			for g := range reads {
				wg.Add(1)
				go func() {
					defer wg.Done()
					reads[g] = renderedView(m.View())
				}()
			}
			wg.Wait()
			for g := range reads {
				if reads[g] != reads[0] {
					t.Errorf("concurrent first reads of one view rendered differently:\n%s\n%s", reads[0], reads[g])
				}
			}
			held = append(held, m.view.Load())
		}
	}
	var ids []string
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("s%02d", i+1)
		if _, err := m.RegisterSeller(Registration{ID: id, Lambda: 0.3 + 0.1*float64(i), SyntheticRows: 60}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		capture()
	}
	for step, op := range ops {
		k := int(op.r[0] * float64(len(ids)))
		switch op.kind {
		case opTrade:
			_, err = m.Trade(context.Background(), demoBuyer(20+130*op.r[0], 0.6+0.35*op.r[1]), nil, nil)
		case opTopUp:
			_, err = m.TopUpBudget(ids[k], 0.5+4.5*op.r[1])
		case opJoin:
			id := fmt.Sprintf("j%02d", step)
			_, err = m.RegisterSeller(Registration{ID: id, Lambda: 0.2 + 0.7*op.r[1], SyntheticRows: 40 + int(40*op.r[0])})
			ids = append(ids, id)
		case opLeave:
			if len(ids) <= 2 {
				continue
			}
			err = m.RemoveSeller(ids[k])
			ids = slices.Delete(ids, k, k+1)
		case opCompact:
			compactNow(t, m)
		case opSaveAll:
			err = p.SaveAll()
		case opRestore:
			if err = p.SaveAll(); err != nil {
				break
			}
			p.Close()
			p = New(opts)
			if _, err = p.RestoreAll(); err != nil {
				break
			}
			m, err = p.Get("h")
		}
		if err != nil {
			t.Fatalf("step %d (op %d): %v", step, op.kind, err)
		}
		capture()
	}
	for _, v := range held {
		got = append(got, renderedView(v.rendered()))
	}
	return got
}

// TestLateFirstReadsRenderAsPublished: a published view holds inputs, not
// a rendering, and renders its roster and prototypes at its first read, so
// that read must serve what the view served at its publication however
// much the market has changed since. Generated histories of trades,
// top-ups, joins, leaves, compactions, SaveAll and SaveAll-then-restore run
// twice on identical markets: once reading each view as it is published,
// once reading each only after the whole history (or, for every third, by
// four goroutines at once as soon as it is published — run under -race in
// make race). Every view must render the same roster, budgets, spends and
// discounts, and its prototypes the same quotes, bit for bit, both times.
func TestLateFirstReadsRenderAsPublished(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := stat.NewRand(seed)
			ops := make([]lateReadOp, 14+rng.Intn(10))
			for i := range ops {
				ops[i] = lateReadOp{kind: rng.Intn(numLateReadOps), r: [2]float64{rng.Float64(), rng.Float64()}}
				if i%3 == 0 {
					ops[i].kind = opTrade // spends move only with trades
				}
			}
			eager := runLateReadHistory(t, ops, true)
			late := runLateReadHistory(t, ops, false)
			if len(eager) != len(late) {
				t.Fatalf("the histories published %d and %d views", len(eager), len(late))
			}
			for i := range eager {
				if late[i] != eager[i] {
					t.Fatalf("view %d read late renders\n%.600s\nread at its publication\n%.600s", i, late[i], eager[i])
				}
			}
		})
	}
}
