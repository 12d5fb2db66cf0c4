package pool

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"share/internal/budget"
	"share/internal/market"
	"share/internal/wal"
)

// fptr is a Spec pointer-field helper.
func fptr(v float64) *float64 { return &v }

func TestCreateBudgetSpecValidation(t *testing.T) {
	p := New(quietOptions())
	for i, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		_, err := p.Create(Spec{ID: fmt.Sprintf("bad%d", i), EpsilonBudget: fptr(bad)})
		var fe *FieldError
		if !errors.As(err, &fe) || fe.Field != "epsilon_budget" {
			t.Errorf("Create(epsilon_budget=%g) = %v, want FieldError on epsilon_budget", bad, err)
		}
	}
	_, err := p.Create(Spec{ID: "badcomp", EpsilonBudget: fptr(5), Composition: "fancy"})
	var fe *FieldError
	if !errors.As(err, &fe) || fe.Field != "composition" {
		t.Errorf("Create(composition=fancy) = %v, want FieldError on composition", err)
	}

	m, err := p.Create(Spec{ID: "ok", EpsilonBudget: fptr(5), Composition: "advanced"})
	if err != nil {
		t.Fatal(err)
	}
	if info := m.Info(); info.EpsilonBudget != 5 || info.Composition != "advanced" {
		t.Errorf("Info = %+v, want epsilon_budget 5 composition advanced", info)
	}
	plain, err := p.Create(Spec{ID: "plain"})
	if err != nil {
		t.Fatal(err)
	}
	if info := plain.Info(); info.EpsilonBudget != 0 || info.Composition != "" {
		t.Errorf("budget-free Info = %+v, want zero epsilon_budget and empty composition", info)
	}

	// Pool-level default applies unless the spec overrides it; an explicit
	// zero disables budgeting for that market alone.
	dOpts := quietOptions()
	dOpts.EpsilonBudget = 3
	dp := New(dOpts)
	dm, err := dp.Create(Spec{ID: "inherit"})
	if err != nil {
		t.Fatal(err)
	}
	if info := dm.Info(); info.EpsilonBudget != 3 || info.Composition != "basic" {
		t.Errorf("inherited Info = %+v, want epsilon_budget 3 composition basic", info)
	}
	zm, err := dp.Create(Spec{ID: "optout", EpsilonBudget: fptr(0)})
	if err != nil {
		t.Fatal(err)
	}
	if info := zm.Info(); info.EpsilonBudget != 0 || info.Composition != "" {
		t.Errorf("opted-out Info = %+v, want budgeting disabled", info)
	}

	// Invalid pool-level defaults fall back to disabled (mirroring Solver),
	// never to a broken pool.
	bOpts := quietOptions()
	bOpts.EpsilonBudget = -5
	bp := New(bOpts)
	bm, err := bp.Create(Spec{ID: "fallback"})
	if err != nil {
		t.Fatal(err)
	}
	if info := bm.Info(); info.EpsilonBudget != 0 {
		t.Errorf("invalid pool default leaked into Info = %+v", info)
	}
}

func TestBudgetedTradeChargesLedger(t *testing.T) {
	p := New(quietOptions())
	m, err := p.Create(Spec{ID: "bt", EpsilonBudget: fptr(1e18)})
	if err != nil {
		t.Fatal(err)
	}
	register(t, m, 2)
	if _, err := m.Trade(context.Background(), demoBuyer(90, 0.8), nil, nil); err != nil {
		t.Fatal(err)
	}
	v := m.View()
	if len(v.Trades) != 1 {
		t.Fatalf("committed %d trades, want 1", len(v.Trades))
	}
	if got := v.Last.BudgetSpent; len(got) != 2 {
		t.Fatalf("transaction BudgetSpent = %v, want one entry per seller", got)
	}
	for _, s := range v.Sellers {
		if s.Budget != 1e18 {
			t.Errorf("seller %s budget %g, want 1e18", s.ID, s.Budget)
		}
		if !(s.Spent > 0) {
			t.Errorf("seller %s spent %g after a trade, want > 0", s.ID, s.Spent)
		}
		st, epoch, err := m.Seller(s.ID)
		if err != nil {
			t.Fatalf("Seller(%s): %v", s.ID, err)
		}
		if st != s || epoch != v.Epoch {
			t.Errorf("Seller(%s) = %+v at epoch %d, view has %+v at epoch %d", s.ID, st, epoch, s, v.Epoch)
		}
	}
	if _, _, err := m.Seller("ghost"); !errors.Is(err, ErrSellerNotFound) {
		t.Errorf("Seller(ghost) = %v, want ErrSellerNotFound", err)
	}
}

// TestBudgetGaugesFollowEverySpend: the market keeps each seller's
// ε-spent gauge handle after its first publish, and every later publish
// still sets it — for sellers already known and for a seller seen for the
// first time. (A paper-parameter trade spends a few micro-ε, which the
// milli-ε gauge rounds to 0, so the publishes here carry set spends.)
func TestBudgetGaugesFollowEverySpend(t *testing.T) {
	p := New(quietOptions())
	m, err := p.Create(Spec{ID: "g", EpsilonBudget: fptr(10)})
	if err != nil {
		t.Fatal(err)
	}
	publish := func(sellers ...SellerState) map[string]int64 {
		v := &View{}
		for _, s := range sellers {
			v.roster = append(v.roster, &market.Seller{ID: s.ID})
			v.spent = append(v.spent, s.Spent)
		}
		m.writeMu.Lock()
		m.setGauges(v)
		m.writeMu.Unlock()
		return p.metrics.Snapshot().Gauges
	}
	publish(SellerState{ID: "a", Spent: 1.5}, SellerState{ID: "b", Spent: 0.25})
	got := publish(SellerState{ID: "a", Spent: 3}, SellerState{ID: "b", Spent: 0.5}, SellerState{ID: "c", Spent: 2})
	for id, want := range map[string]int64{"a": 3000, "b": 500, "c": 2000} {
		if g := got["market/g/seller/"+id+"/eps_spent_milli"]; g != want {
			t.Errorf("seller %s eps_spent_milli = %d, want %d", id, g, want)
		}
	}
}

// probeRoundSpends runs rounds generous-budget rounds on a market named id
// and returns the per-seller ε-spent map after each round. The derived seed
// depends only on the pool seed and the market ID, and budgets draw no
// randomness of their own, so a second market under the same ID replays the
// same per-round ε exactly.
func probeRoundSpends(t *testing.T, id string, sellers, rounds int) []map[string]float64 {
	t.Helper()
	p := New(quietOptions())
	m, err := p.Create(Spec{ID: id, EpsilonBudget: fptr(1e18)})
	if err != nil {
		t.Fatal(err)
	}
	register(t, m, sellers)
	out := make([]map[string]float64, rounds)
	for r := 0; r < rounds; r++ {
		if _, err := m.Trade(context.Background(), demoBuyer(90+10*float64(r), 0.8), nil, nil); err != nil {
			t.Fatalf("probe round %d: %v", r+1, err)
		}
		spent := make(map[string]float64)
		for _, s := range m.View().Sellers {
			spent[s.ID] = s.Spent
		}
		out[r] = spent
	}
	return out
}

func TestBudgetExhaustionExcludesTradeUntilTopUp(t *testing.T) {
	spends := probeRoundSpends(t, "bx", 2, 2)
	s1, s2 := spends[0], spends[1]
	maxID, maxS1 := "", 0.0
	for id, s := range s1 {
		if s > maxS1 {
			maxID, maxS1 = id, s
		}
	}
	if maxS1 <= 0 {
		t.Fatalf("probe round 1 charged nothing: %v", s1)
	}
	delta := s2[maxID] - maxS1
	if delta <= 0 {
		t.Fatalf("probe round 2 charged seller %s nothing (spent %v then %v)", maxID, s1, s2)
	}
	// Room for round 1 for every seller, but not for the hungriest seller's
	// second charge.
	B := maxS1 + 0.5*delta

	p := New(quietOptions())
	m, err := p.Create(Spec{ID: "bx", EpsilonBudget: fptr(B)})
	if err != nil {
		t.Fatal(err)
	}
	register(t, m, 2)
	if _, err := m.Trade(context.Background(), demoBuyer(90, 0.8), nil, nil); err != nil {
		t.Fatalf("round 1 within budget: %v", err)
	}
	for id, want := range s1 {
		st, _, err := m.Seller(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Spent != want {
			t.Errorf("seller %s spent %v, probe says %v (budget must not perturb the round)", id, st.Spent, want)
		}
	}

	_, err = m.Trade(context.Background(), demoBuyer(100, 0.8), nil, nil)
	var ee *budget.ExhaustedError
	if !errors.As(err, &ee) {
		t.Fatalf("round 2 over budget = %v, want *budget.ExhaustedError", err)
	}
	if ee.SellerID == "" || ee.Budget != B || !(ee.Spent+ee.Requested > B) {
		t.Errorf("exhaustion error %+v inconsistent with budget %g", ee, B)
	}
	if got := m.exhaustedC.Value(); got != 1 {
		t.Errorf("budget_exhausted counter = %d, want 1", got)
	}
	// The refused round committed nothing: no trade, no charge.
	if v := m.View(); len(v.Trades) != 1 {
		t.Fatalf("refused round still committed: %d trades", len(v.Trades))
	}
	for id, want := range s1 {
		st, _, _ := m.Seller(id)
		if st.Spent != want {
			t.Errorf("seller %s spent %v after refused round, want unchanged %v", id, st.Spent, want)
		}
	}
	// Quotes keep flowing against the published view.
	if _, _, err := m.Quote(context.Background(), demoBuyer(120, 0.9), ""); err != nil {
		t.Fatalf("quote after exhaustion: %v", err)
	}

	for id := range s1 {
		st, err := m.TopUpBudget(id, 10*s2[maxID])
		if err != nil {
			t.Fatalf("TopUpBudget(%s): %v", id, err)
		}
		if st.Budget <= B {
			t.Errorf("seller %s budget %g after top-up, want > %g", id, st.Budget, B)
		}
	}
	tx, err := m.Trade(context.Background(), demoBuyer(100, 0.8), nil, nil)
	if err != nil {
		t.Fatalf("round 2 after top-up: %v", err)
	}
	if tx.Round != 2 {
		t.Errorf("post-top-up round numbered %d, want 2 (a refused round must not burn a number)", tx.Round)
	}
}

func TestTopUpBudgetValidation(t *testing.T) {
	p := New(quietOptions())
	plain, err := p.Create(Spec{ID: "nb"})
	if err != nil {
		t.Fatal(err)
	}
	register(t, plain, 1)
	var fe *FieldError
	if _, err := plain.TopUpBudget("s01", 1); !errors.As(err, &fe) || fe.Field != "add" {
		t.Errorf("TopUpBudget on budget-free market = %v, want FieldError on add", err)
	}

	bm, err := p.Create(Spec{ID: "wb", EpsilonBudget: fptr(4)})
	if err != nil {
		t.Fatal(err)
	}
	register(t, bm, 1)
	if _, err := bm.TopUpBudget("ghost", 1); !errors.Is(err, ErrSellerNotFound) {
		t.Errorf("TopUpBudget(ghost) = %v, want ErrSellerNotFound", err)
	}
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := bm.TopUpBudget("s01", bad); !errors.As(err, &fe) || fe.Field != "add" {
			t.Errorf("TopUpBudget(add=%g) = %v, want FieldError on add", bad, err)
		}
	}
	st, err := bm.TopUpBudget("s01", 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Budget != 6 {
		t.Errorf("budget after top-up = %g, want 6", st.Budget)
	}
	if got, _, _ := bm.Seller("s01"); got.Budget != 6 {
		t.Errorf("published view budget = %g, want 6", got.Budget)
	}
}

func TestRemoveSellerUnknownNotFound(t *testing.T) {
	p := New(quietOptions())
	m, err := p.Create(Spec{ID: "rm"})
	if err != nil {
		t.Fatal(err)
	}
	register(t, m, 2)
	if err := m.RemoveSeller("ghost"); !errors.Is(err, ErrSellerNotFound) {
		t.Errorf("RemoveSeller(ghost) = %v, want ErrSellerNotFound", err)
	}
}

// TestExhaustedTradesLeaveQuotesUndisturbed hammers one exhausted market
// with concurrent trades and quotes: every trade must refuse with the typed
// exhaustion error, every quote must succeed, and the ledger must stay
// untouched. Run under -race this pins that the refusal path shares no
// unsynchronized state with the lock-free quote path.
func TestExhaustedTradesLeaveQuotesUndisturbed(t *testing.T) {
	s1 := probeRoundSpends(t, "biso", 2, 1)[0]
	minS1 := math.Inf(1)
	for _, s := range s1 {
		if s > 0 && s < minS1 {
			minS1 = s
		}
	}
	if math.IsInf(minS1, 1) {
		t.Fatalf("probe charged nothing: %v", s1)
	}

	p := New(quietOptions())
	conc, queue := 4, 64
	m, err := p.Create(Spec{
		ID:               "biso",
		EpsilonBudget:    fptr(0.5 * minS1), // below every seller's first charge
		TradeConcurrency: &conc,
		TradeQueue:       &queue,
	})
	if err != nil {
		t.Fatal(err)
	}
	register(t, m, 2)

	const traders, tradesEach = 4, 5
	const quoters, quotesEach = 4, 10
	errs := make(chan error, traders*tradesEach+quoters*quotesEach)
	var wg sync.WaitGroup
	for g := 0; g < traders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < tradesEach; i++ {
				_, err := m.Trade(context.Background(), demoBuyer(90, 0.8), nil, nil)
				var ee *budget.ExhaustedError
				if !errors.As(err, &ee) {
					errs <- fmt.Errorf("trade = %v, want *budget.ExhaustedError", err)
				}
			}
		}()
	}
	for g := 0; g < quoters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < quotesEach; i++ {
				if _, _, err := m.Quote(context.Background(), demoBuyer(100, 0.9), ""); err != nil {
					errs <- fmt.Errorf("quote: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := m.exhaustedC.Value(); got != traders*tradesEach {
		t.Errorf("budget_exhausted counter = %d, want %d", got, traders*tradesEach)
	}
	if v := m.View(); len(v.Trades) != 0 {
		t.Errorf("exhausted market committed %d trades", len(v.Trades))
	}
	for id := range s1 {
		if st, _, _ := m.Seller(id); st.Spent != 0 {
			t.Errorf("seller %s spent %g on refused rounds, want 0", id, st.Spent)
		}
	}
}

func TestBudgetWalReplayExactness(t *testing.T) {
	dir := t.TempDir()
	opts := fastWalOptions(dir)
	opts.EpsilonBudget = 1e15
	opts.Composition = "advanced"
	p := New(opts)
	m, err := p.Create(Spec{ID: "bwal"})
	if err != nil {
		t.Fatal(err)
	}
	register(t, m, 3)
	for i := 0; i < 3; i++ {
		if _, err := m.Trade(context.Background(), demoBuyer(80+10*float64(i), 0.8), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.TopUpBudget("s01", 3.25); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Trade(context.Background(), demoBuyer(120, 0.7), nil, nil); err != nil {
		t.Fatal(err)
	}
	ref := canonicalState(t, m)
	refInfo := m.Info()
	refSellers := m.View().Sellers
	p.Close()

	p2 := New(opts)
	restored, err := p2.RestoreAll()
	if err != nil {
		t.Fatalf("RestoreAll: %v", err)
	}
	if len(restored) != 1 || restored[0] != "bwal" {
		t.Fatalf("restored %v, want [bwal]", restored)
	}
	m2, err := p2.Get("bwal")
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalState(t, m2); got != ref {
		t.Errorf("replayed state diverges\n got: %.300s\nwant: %.300s", got, ref)
	}
	if info := m2.Info(); info.EpsilonBudget != refInfo.EpsilonBudget || info.Composition != refInfo.Composition {
		t.Errorf("restored Info = %+v, want budget config of %+v", info, refInfo)
	}
	for _, want := range refSellers {
		got, _, err := m2.Seller(want.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Spent != want.Spent || got.Budget != want.Budget {
			t.Errorf("seller %s replayed spent/budget %v/%v, want exactly %v/%v",
				want.ID, got.Spent, got.Budget, want.Spent, want.Budget)
		}
	}
	p2.Close()
}

func TestBudgetCompactionCarriesAccounts(t *testing.T) {
	dir := t.TempDir()
	opts := fastWalOptions(dir)
	opts.EpsilonBudget = 1e15
	// Compact after the first trade and the top-up so the final state is a
	// snapshot carrying ledger accounts plus a replayed WAL tail whose trade
	// record's spend cross-check would catch a zeroed or double-applied
	// ledger.
	p := New(opts)
	m, err := p.Create(Spec{ID: "bcomp"})
	if err != nil {
		t.Fatal(err)
	}
	register(t, m, 2)
	if _, err := m.Trade(context.Background(), demoBuyer(90, 0.8), nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.TopUpBudget("s02", 1.5); err != nil {
		t.Fatal(err)
	}
	compactNow(t, m) // the 4th record
	if _, err := m.Trade(context.Background(), demoBuyer(100, 0.8), nil, nil); err != nil {
		t.Fatal(err)
	}
	ref := canonicalState(t, m)
	p.Close()

	p2 := New(opts)
	if _, err := p2.RestoreAll(); err != nil {
		t.Fatalf("RestoreAll: %v", err)
	}
	m2, err := p2.Get("bcomp")
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalState(t, m2); got != ref {
		t.Errorf("compacted replay diverges\n got: %.300s\nwant: %.300s", got, ref)
	}
	p2.Close()
}

// TestWALTortureBudgetRecovery runs the crash-recovery torture sweep over a
// budgeted market's log — registrations, trades, a top-up, a mid-life join
// and a mid-life leave — and asserts that every cut restores the live state
// after the last whole mutation it keeps, every seller's exact ε spent and
// budget included. Every mutation appends one record, so that is the state
// after the last record the cut keeps. A trade once appended its charges in
// a second record, and a cut between the two restored the trade uncharged:
// a state no live market passes through, which this sweep reports.
func TestWALTortureBudgetRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := fastWalOptions(dir)
	opts.EpsilonBudget = 1e15
	p := New(opts)
	m, err := p.Create(Spec{ID: "btort"})
	if err != nil {
		t.Fatal(err)
	}
	// states[i] is the canonical state after mutation i and marks[i] the
	// wal/records count then; index 0 is the empty market.
	states := []string{canonicalState(t, m)}
	marks := []uint64{p.walMet.Records.Value()}
	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, canonicalState(t, m))
		marks = append(marks, p.walMet.Records.Value())
	}
	trade := func(n float64) {
		t.Helper()
		_, err := m.Trade(context.Background(), demoBuyer(n, 0.8), nil, nil)
		step(err)
	}
	for i := 0; i < 3; i++ {
		_, err := m.RegisterSeller(Registration{ID: fmt.Sprintf("s%02d", i+1), Lambda: 0.3 + 0.1*float64(i), SyntheticRows: 40})
		step(err)
	}
	trade(80)
	trade(90)
	_, err = m.TopUpBudget("s01", 2.5)
	step(err)
	trade(100)
	_, err = m.RegisterSeller(Registration{ID: "j01", Lambda: 0.45, SyntheticRows: 40}) // mid-life join
	step(err)
	trade(110)
	step(m.RemoveSeller("s02")) // mid-life leave
	trade(120)
	p.Close()

	walPath := filepath.Join(dir, "btort"+walExt)
	raw, ends := segmentEnds(t, walPath)
	for _, cut := range tortureCuts(ends, int64(len(raw))) {
		kept := uint64(0)
		for _, e := range ends {
			if e <= cut {
				kept++
			}
		}
		want := 0
		for i, mark := range marks {
			if mark <= kept {
				want = i
			}
		}
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, "btort"+walExt), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		subOpts := fastWalOptions(sub)
		subOpts.EpsilonBudget = opts.EpsilonBudget
		p2 := New(subOpts)
		restored, err := p2.RestoreAll()
		if err != nil {
			t.Fatalf("cut %d: RestoreAll: %v", cut, err)
		}
		if len(restored) != 1 || restored[0] != "btort" {
			t.Fatalf("cut %d: restored %v, want [btort]", cut, restored)
		}
		m2, err := p2.Get("btort")
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got := canonicalState(t, m2); got != states[want] {
			t.Fatalf("cut %d keeps %d records: replayed state diverges from the state after mutation %d\n got: %.300s\nwant: %.300s",
				cut, kept, want, got, states[want])
		}
		p2.Close()
	}
	for i, mark := range marks {
		if mark != uint64(i) {
			t.Fatalf("%d records after mutation %d, want one record per mutation (marks %v)", mark, i, marks)
		}
	}
}

// segmentEnds returns the bytes of the WAL segment at path and the offset
// just past each of its records; the last must end the file.
func segmentEnds(t *testing.T, path string) ([]byte, []int64) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	if _, _, err := wal.Scan(path, func(_ *wal.Record, end int64) error {
		ends = append(ends, end)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(ends) == 0 || ends[len(ends)-1] != int64(len(raw)) {
		t.Fatalf("%s: records end at %v, file is %d bytes", path, ends, len(raw))
	}
	return raw, ends
}

// tortureCuts lists the truncation offsets the torture sweeps try on a
// segment of the given size: every record boundary, boundary ±1 and ±3,
// each record's midpoint, and a coarse stride over the whole file.
func tortureCuts(ends []int64, size int64) []int64 {
	cuts := map[int64]bool{0: true, size: true}
	prev := int64(0)
	for _, e := range ends {
		for _, c := range []int64{e, e - 1, e + 1, e - 3, e + 3, (prev + e) / 2} {
			if c >= 0 && c <= size {
				cuts[c] = true
			}
		}
		prev = e
	}
	stride := max(size/64, 1)
	for c := int64(0); c <= size; c += stride {
		cuts[c] = true
	}
	out := make([]int64, 0, len(cuts))
	for c := range cuts {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// canonicalJSON renders raw JSON the way canonicalView renders a view.
func canonicalJSON(t *testing.T, raw []byte) string {
	t.Helper()
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	norm, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(norm)
}

// TestParentEraBudgetLogRestores restores a directory written by a release
// that logged each budgeted trade as a trade record followed by a
// budget_charge record holding its charges: testdata/parent_budget holds
// the spec snapshot and segment of a 3-seller market (advanced
// composition) that traded four times with a top-up after the second
// trade, and the live canonical view after each trade. The whole log
// restores the final state: each trade record charges the ledger and each
// charge record is a no-op. A copy cut right after a trade frame, before
// its charge frame, restores the state after that trade, charge included.
// One more trade then appends exactly one record.
func TestParentEraBudgetLogRestores(t *testing.T) {
	const src = "testdata/parent_budget"
	spec, err := os.ReadFile(filepath.Join(src, "pb"+snapshotExt))
	if err != nil {
		t.Fatal(err)
	}
	rawStates, err := os.ReadFile(filepath.Join(src, "states.json"))
	if err != nil {
		t.Fatal(err)
	}
	var stored []json.RawMessage
	if err := json.Unmarshal(rawStates, &stored); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(src, "pb"+walExt)
	seg, _ := segmentEnds(t, walPath)
	var tradeEnds []int64
	charges := 0
	if _, _, err := wal.Scan(walPath, func(rec *wal.Record, end int64) error {
		switch rec.Kind {
		case recordTrade:
			tradeEnds = append(tradeEnds, end)
		case recordBudget:
			charges++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(tradeEnds) != len(stored) || charges != len(stored)+1 {
		t.Fatalf("fixture holds %d trades, %d budget records and %d states, want one charge per trade, a top-up and one state per trade",
			len(tradeEnds), charges, len(stored))
	}
	restore := func(cut int64) (*Pool, *Market) {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "pb"+snapshotExt), spec, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "pb"+walExt), seg[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		p := New(fastWalOptions(dir))
		restored, err := p.RestoreAll()
		if err != nil || len(restored) != 1 {
			t.Fatalf("cut %d: RestoreAll = %v, %v; want [pb]", cut, restored, err)
		}
		m, err := p.Get("pb")
		if err != nil {
			t.Fatal(err)
		}
		return p, m
	}
	for i, end := range tradeEnds {
		p, m := restore(end)
		if got, want := canonicalView(t, m, m.View()), canonicalJSON(t, stored[i]); got != want {
			t.Errorf("cut after trade %d's record: restored state diverges from the live state after that trade\n got: %.300s\nwant: %.300s",
				i+1, got, want)
		}
		p.Close()
	}

	p, m := restore(int64(len(seg)))
	defer p.Close()
	if got, want := canonicalView(t, m, m.View()), canonicalJSON(t, stored[len(stored)-1]); got != want {
		t.Fatalf("whole log: restored state diverges from the final live state\n got: %.300s\nwant: %.300s", got, want)
	}
	before := p.walMet.Records.Value()
	if _, err := m.Trade(context.Background(), demoBuyer(120, 0.8), nil, nil); err != nil {
		t.Fatal(err)
	}
	if n := p.walMet.Records.Value() - before; n != 1 {
		t.Errorf("a trade after the restore appended %d records, want 1", n)
	}
}

// TestReplaySkipsMalformedTradeRecords: a trade record whose per-seller
// slices do not match the roster, whose recorded spend disagrees with the
// replayed one, or which records ε spent into a market without a privacy
// budget makes RestoreAll skip that market — never panic — with a warning
// naming the record, while the pool's other markets restore.
func TestReplaySkipsMalformedTradeRecords(t *testing.T) {
	base := t.TempDir()
	p := New(fastWalOptions(base))
	var live string
	var tradeSeqs []uint64
	for _, id := range []string{"good", "bad"} {
		m, err := p.Create(Spec{ID: id, EpsilonBudget: fptr(1e15)})
		if err != nil {
			t.Fatal(err)
		}
		register(t, m, 3)
		for i := 0; i < 2; i++ {
			if _, err := m.Trade(context.Background(), demoBuyer(80+10*float64(i), 0.8), nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		if id == "good" {
			live = canonicalState(t, m)
		}
	}
	p.Close()
	if _, _, err := wal.Scan(filepath.Join(base, "bad"+walExt), func(rec *wal.Record, _ int64) error {
		if rec.Kind == recordTrade {
			tradeSeqs = append(tradeSeqs, rec.Seq)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(tradeSeqs) != 2 {
		t.Fatalf("bad market logged trade records %v, want 2", tradeSeqs)
	}
	first, last := tradeSeqs[0], tradeSeqs[1]

	for _, tc := range []struct {
		name     string
		seq      uint64                    // the record the warning must name
		edit     func(*market.Transaction) // applied to record seq; nil keeps the log
		noBudget bool                      // strip the budget from the spec snapshot
	}{
		{"pieces shorter than the roster", last, func(tx *market.Transaction) { tx.Pieces = tx.Pieces[:2] }, false},
		{"epsilons longer than the roster", last, func(tx *market.Transaction) { tx.Epsilons = append(tx.Epsilons, 1e-5) }, false},
		{"budget spent shorter than the roster", last, func(tx *market.Transaction) { tx.BudgetSpent = tx.BudgetSpent[:1] }, false},
		{"budget spent one ulp off the replayed spend", last, func(tx *market.Transaction) {
			tx.BudgetSpent[1] = math.Nextafter(tx.BudgetSpent[1], 1)
		}, false},
		{"budget spent into a market without a budget", first, nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for _, name := range []string{"good" + snapshotExt, "good" + walExt, "bad" + snapshotExt} {
				raw, err := os.ReadFile(filepath.Join(base, name))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if tc.noBudget {
				spec, err := ReadSnapshotFile(filepath.Join(dir, "bad"+snapshotExt))
				if err != nil {
					t.Fatal(err)
				}
				spec.Spec.EpsilonBudget = fptr(0)
				if _, err := writeSnapshotFile(filepath.Join(dir, "bad"+snapshotExt), spec); err != nil {
					t.Fatal(err)
				}
			}
			l, err := wal.Open(filepath.Join(dir, "bad"+walExt), wal.Options{Mode: wal.ModeSync})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := wal.Scan(filepath.Join(base, "bad"+walExt), func(rec *wal.Record, _ int64) error {
				data := rec.Data
				if rec.Seq == tc.seq && tc.edit != nil {
					var tr tradeRecord
					if err := json.Unmarshal(data, &tr); err != nil {
						return err
					}
					tc.edit(tr.Tx)
					var err error
					if data, err = json.Marshal(tr); err != nil {
						return err
					}
				}
				seq, _, err := l.Append(rec.Kind, json.RawMessage(data))
				if err == nil && seq != rec.Seq {
					err = fmt.Errorf("copied record %d as %d", rec.Seq, seq)
				}
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			var warnings []string
			opts := fastWalOptions(dir)
			opts.Logf = func(format string, args ...any) { warnings = append(warnings, fmt.Sprintf(format, args...)) }
			p2 := New(opts)
			defer p2.Close()
			ids, err := p2.RestoreAll()
			if err != nil {
				t.Fatalf("RestoreAll: %v", err)
			}
			if len(ids) != 1 || ids[0] != "good" {
				t.Fatalf("restored %v, want [good]", ids)
			}
			if _, err := p2.Get("bad"); err == nil {
				t.Fatal("the rejected market stayed in the pool")
			}
			m, err := p2.Get("good")
			if err != nil {
				t.Fatal(err)
			}
			if got := canonicalState(t, m); got != live {
				t.Errorf("the intact market restored a different state\n got: %.300s\nwant: %.300s", got, live)
			}
			record := fmt.Sprintf("trade record %d", tc.seq)
			named := false
			for _, w := range warnings {
				named = named || (strings.Contains(w, "skipping") && strings.Contains(w, record))
			}
			if !named {
				t.Fatalf("no warning names %s: %q", record, warnings)
			}
		})
	}
}

// BenchmarkRatioBudgetOverhead gates what the per-seller ε ledger adds to
// a trade: 400 trades alternate between a budget-free market and a twin
// whose 1e18 budget never refuses. The twins share a seed and a roster,
// and budget accounting draws no randomness, so both run the same rounds
// and differ only by the ledger's check and charge. The fastest budgeted
// trade may be at most 5% slower than the fastest budget-free one; the
// minimum is immune to the GC pauses and preemptions a mean would carry.
func BenchmarkRatioBudgetOverhead(b *testing.B) {
	const (
		sellers  = 4
		rows     = 200
		warmup   = 5
		pairs    = 400
		limitPct = 5.0
	)
	p := New(quietOptions())
	defer p.Close()
	seed := int64(7)
	twin := func(spec Spec) *Market {
		spec.Seed = &seed
		m, err := p.Create(spec)
		if err != nil {
			b.Fatal(err)
		}
		for s := 0; s < sellers; s++ {
			reg := Registration{ID: fmt.Sprintf("s%02d", s), Lambda: 0.25 + 0.1*float64(s), SyntheticRows: rows}
			if _, err := m.RegisterSeller(reg); err != nil {
				b.Fatal(err)
			}
		}
		return m
	}
	off := twin(Spec{ID: "off"})
	on := twin(Spec{ID: "on", EpsilonBudget: fptr(1e18)})
	buyer := demoBuyer(90, 0.8)
	trade := func(m *Market) time.Duration {
		t0 := time.Now()
		if _, err := m.Trade(context.Background(), buyer, nil, nil); err != nil {
			b.Fatalf("%s trade: %v", m.ID(), err)
		}
		return time.Since(t0)
	}
	for i := 0; i < warmup; i++ {
		trade(off)
		trade(on)
	}
	var minOff, minOn time.Duration
	for i := 0; i < b.N; i++ {
		for k := 0; k < pairs; k++ {
			if d := trade(off); minOff == 0 || d < minOff {
				minOff = d
			}
			if d := trade(on); minOn == 0 || d < minOn {
				minOn = d
			}
		}
	}
	overhead := (float64(minOn)/float64(minOff) - 1) * 100
	b.ReportMetric(0, "ns/op")
	b.ReportMetric(overhead, "overhead-%")
	if overhead > limitPct {
		b.Fatalf("budgeted trade %v vs budget-free %v: %+.2f%%, want <= %.0f%%", minOn, minOff, overhead, limitPct)
	}
}
