package pool

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"share/internal/budget"
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
	if got := v.Trades[0].BudgetSpent; len(got) != 2 {
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
		m.writeMu.Lock()
		m.updateBudgetGauges(&View{Sellers: sellers})
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
	// Compact after the first trade's pair of records so the final state is
	// a snapshot carrying ledger accounts plus a replayed WAL tail whose
	// budget_charge cross-check would catch a zeroed or double-applied
	// ledger.
	opts.CompactRecords = 4
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

// TestWALTortureBudgetRecovery extends the crash-recovery torture sweep to
// budget_charge frames: a budgeted market's WAL is truncated at a dense set
// of byte offsets and replay must restore exactly the longest committed
// record prefix. Budgeted trades write TWO records (trade, then its charge),
// so a cut between them legitimately restores a trade whose ε has not been
// charged yet — a state no live observation matches — which is why the
// expectations here derive from the committed records themselves rather
// than from live state snapshots.
func TestWALTortureBudgetRecovery(t *testing.T) {
	const eps = 1e15
	dir := t.TempDir()
	opts := fastWalOptions(dir)
	opts.EpsilonBudget = eps
	p := New(opts)
	m, err := p.Create(Spec{ID: "btort"})
	if err != nil {
		t.Fatal(err)
	}
	register(t, m, 3)
	for i := 0; i < 2; i++ {
		if _, err := m.Trade(context.Background(), demoBuyer(80+10*float64(i), 0.8), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.TopUpBudget("s01", 2.5); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 4; i++ {
		if _, err := m.Trade(context.Background(), demoBuyer(80+10*float64(i), 0.8), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()

	walPath := filepath.Join(dir, "btort"+walExt)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	type recInfo struct {
		end     int64
		kind    string
		seller  string       // register records
		charges budgetRecord // budget records
	}
	var recs []recInfo
	if _, _, err := wal.Scan(walPath, func(rec *wal.Record, end int64) error {
		ri := recInfo{end: end, kind: rec.Kind}
		switch rec.Kind {
		case recordRegister:
			var st StoredSeller
			if err := json.Unmarshal(rec.Data, &st); err != nil {
				return err
			}
			ri.seller = st.ID
		case recordBudget:
			if err := json.Unmarshal(rec.Data, &ri.charges); err != nil {
				return err
			}
		}
		recs = append(recs, ri)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// 3 registers + 4 trades × (trade + budget_charge) + 1 top-up.
	if len(recs) != 12 {
		t.Fatalf("wal holds %d records, want 12", len(recs))
	}

	cuts := map[int64]bool{0: true, int64(len(raw)): true}
	prev := int64(0)
	for _, r := range recs {
		for _, c := range []int64{r.end, r.end - 1, r.end + 1, r.end - 3, r.end + 3, (prev + r.end) / 2} {
			if c >= 0 && c <= int64(len(raw)) {
				cuts[c] = true
			}
		}
		prev = r.end
	}
	stride := int64(len(raw) / 64)
	if stride < 1 {
		stride = 1
	}
	for c := int64(0); c <= int64(len(raw)); c += stride {
		cuts[c] = true
	}

	for cut := range cuts {
		// Expectations from the committed prefix: roster, trade count and
		// each seller's exact ε-spent (basic composition sums charges in
		// record order — the same float additions the ledger performs).
		var roster []string
		trades := 0
		spent := map[string]float64{}
		extra := map[string]float64{}
		for _, r := range recs {
			if r.end > cut {
				break
			}
			switch r.kind {
			case recordRegister:
				roster = append(roster, r.seller)
			case recordTrade:
				trades++
			case recordBudget:
				if r.charges.TopUpSeller != "" {
					extra[r.charges.TopUpSeller] += r.charges.TopUpAmount
					continue
				}
				for _, id := range roster {
					if e, ok := r.charges.Charges[id]; ok {
						spent[id] += e
					}
				}
			}
		}

		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, "btort"+walExt), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		subOpts := fastWalOptions(sub)
		subOpts.EpsilonBudget = eps
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
		v := m2.View()
		if len(v.Trades) != trades {
			t.Fatalf("cut %d: replayed %d trades, committed prefix holds %d", cut, len(v.Trades), trades)
		}
		if len(v.Sellers) != len(roster) {
			t.Fatalf("cut %d: replayed %d sellers, committed prefix holds %d", cut, len(v.Sellers), len(roster))
		}
		for i, s := range v.Sellers {
			if s.ID != roster[i] {
				t.Fatalf("cut %d: roster[%d] = %s, want %s", cut, i, s.ID, roster[i])
			}
			if s.Spent != spent[s.ID] {
				t.Errorf("cut %d: seller %s ε-spent %v, committed prefix says exactly %v", cut, s.ID, s.Spent, spent[s.ID])
			}
			if want := eps + extra[s.ID]; s.Budget != want {
				t.Errorf("cut %d: seller %s budget %v, committed prefix says exactly %v", cut, s.ID, s.Budget, want)
			}
		}
		p2.Close()
	}
}
