package pool

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"share/internal/core"
	"share/internal/dataset"
	"share/internal/product"
)

// quietOptions builds pool options that keep test logs silent.
func quietOptions() Options {
	return Options{Seed: 1, Logf: func(string, ...any) {}}
}

// register adds n synthetic sellers to m.
func register(t *testing.T, m *Market, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		_, err := m.RegisterSeller(Registration{
			ID:            fmt.Sprintf("s%02d", i+1),
			Lambda:        0.3 + 0.1*float64(i),
			SyntheticRows: 60,
		})
		if err != nil {
			t.Fatalf("registering seller %d: %v", i, err)
		}
	}
}

func demoBuyer(n, v float64) core.Buyer {
	b := core.PaperBuyer()
	b.N, b.V = n, v
	return b
}

func TestValidateID(t *testing.T) {
	for _, id := range []string{"a", "default", "Market-1", "a.b_c-9", strings.Repeat("x", 64)} {
		if err := ValidateID(id); err != nil {
			t.Errorf("ValidateID(%q) = %v, want nil", id, err)
		}
	}
	for _, id := range []string{"", ".hidden", "-lead", "_lead", "has space", "slash/у", strings.Repeat("x", 65)} {
		err := ValidateID(id)
		var fe *FieldError
		if !errors.As(err, &fe) || fe.Field != "id" {
			t.Errorf("ValidateID(%q) = %v, want FieldError on id", id, err)
		}
	}
}

func TestPoolLifecycle(t *testing.T) {
	p := New(quietOptions())
	m, err := p.Create(Spec{ID: "alpha"})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := p.Create(Spec{ID: "alpha"}); !errors.Is(err, ErrMarketExists) {
		t.Fatalf("duplicate Create = %v, want ErrMarketExists", err)
	}
	if _, err := p.Create(Spec{ID: "beta", Solver: "no-such-solver"}); err == nil {
		t.Fatal("Create with unknown solver succeeded")
	}
	got, err := p.Get("alpha")
	if err != nil || got != m {
		t.Fatalf("Get = (%v, %v), want the created market", got, err)
	}
	if _, err := p.Get("ghost"); !errors.Is(err, ErrMarketNotFound) {
		t.Fatalf("Get(ghost) = %v, want ErrMarketNotFound", err)
	}
	if _, err := p.Create(Spec{ID: "beta"}); err != nil {
		t.Fatalf("Create beta: %v", err)
	}
	infos := p.List()
	if len(infos) != 2 || infos[0].ID != "alpha" || infos[1].ID != "beta" {
		t.Fatalf("List = %+v, want [alpha beta]", infos)
	}
	if err := p.Delete(context.Background(), "beta"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := p.Get("beta"); !errors.Is(err, ErrMarketNotFound) {
		t.Fatalf("Get after Delete = %v, want ErrMarketNotFound", err)
	}
	if err := p.Delete(context.Background(), "beta"); !errors.Is(err, ErrMarketNotFound) {
		t.Fatalf("second Delete = %v, want ErrMarketNotFound", err)
	}
}

// TestDerivedSeedsAreStable pins the recreate-determinism contract: the
// same pool seed and market ID always derive the same market seed, and an
// explicit Spec.Seed (including zero) wins over derivation.
func TestDerivedSeedsAreStable(t *testing.T) {
	p1, p2 := New(quietOptions()), New(quietOptions())
	a1, _ := p1.Create(Spec{ID: "alpha"})
	a2, _ := p2.Create(Spec{ID: "alpha"})
	if a1.Seed() != a2.Seed() {
		t.Fatalf("derived seeds differ: %d vs %d", a1.Seed(), a2.Seed())
	}
	b1, _ := p1.Create(Spec{ID: "beta"})
	if b1.Seed() == a1.Seed() {
		t.Fatalf("distinct IDs derived the same seed %d", a1.Seed())
	}
	zero := int64(0)
	z, _ := p1.Create(Spec{ID: "zed", Seed: &zero})
	if z.Seed() != 0 {
		t.Fatalf("explicit zero seed not honored: %d", z.Seed())
	}
}

// blockingBuilder parks a trade inside product manufacturing so tests can
// probe what the rest of the pool does while one market's write path is
// held.
type blockingBuilder struct {
	once    sync.Once
	started chan struct{}
	release chan struct{}
}

func newBlockingBuilder() *blockingBuilder {
	return &blockingBuilder{started: make(chan struct{}), release: make(chan struct{})}
}

func (b *blockingBuilder) Name() string { return "blocking" }

func (b *blockingBuilder) Build(train, test *dataset.Dataset) (product.Report, error) {
	b.once.Do(func() { close(b.started) })
	<-b.release
	return product.OLS{}.Build(train, test)
}

// TestMarketsAreIsolated is the tentpole contract: a round wedged in market
// A — holding A's write path — never delays quotes OR trades in market B.
func TestMarketsAreIsolated(t *testing.T) {
	p := New(quietOptions())
	a, err := p.Create(Spec{ID: "blocked"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Create(Spec{ID: "free"})
	if err != nil {
		t.Fatal(err)
	}
	register(t, a, 3)
	register(t, b, 3)

	bb := newBlockingBuilder()
	tradeDone := make(chan error, 1)
	go func() {
		_, err := a.Trade(context.Background(), demoBuyer(90, 0.8), bb, nil)
		tradeDone <- err
	}()
	select {
	case <-bb.started:
	case <-time.After(10 * time.Second):
		t.Fatal("market A's trade never reached manufacturing")
	}

	// With A wedged, B must quote and trade promptly.
	done := make(chan error, 1)
	go func() {
		if _, _, err := b.Quote(context.Background(), demoBuyer(120, 0.8), ""); err != nil {
			done <- fmt.Errorf("quote in B: %w", err)
			return
		}
		if _, err := b.Trade(context.Background(), demoBuyer(90, 0.8), nil, nil); err != nil {
			done <- fmt.Errorf("trade in B: %w", err)
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("market B was delayed by market A's in-flight round")
	}
	// Quotes against A itself stay lock-free too.
	if _, _, err := a.Quote(context.Background(), demoBuyer(120, 0.8), ""); err != nil {
		t.Fatalf("lock-free quote in A while trading: %v", err)
	}

	close(bb.release)
	if err := <-tradeDone; err != nil {
		t.Fatalf("market A's trade failed after release: %v", err)
	}
}

// TestDeleteDrainsInFlightRounds races Delete against a wedged round: the
// market unlinks immediately, the drain respects the caller's context, a
// stale handle rejects new work, and the drain completes once the round
// releases.
func TestDeleteDrainsInFlightRounds(t *testing.T) {
	p := New(quietOptions())
	m, err := p.Create(Spec{ID: "doomed"})
	if err != nil {
		t.Fatal(err)
	}
	register(t, m, 3)

	bb := newBlockingBuilder()
	tradeDone := make(chan error, 1)
	go func() {
		_, err := m.Trade(context.Background(), demoBuyer(90, 0.8), bb, nil)
		tradeDone <- err
	}()
	select {
	case <-bb.started:
	case <-time.After(10 * time.Second):
		t.Fatal("trade never reached manufacturing")
	}

	// Delete under a short deadline: the round is still wedged, so the
	// drain must time out — but the market is already unlinked.
	shortCtx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := p.Delete(shortCtx, "doomed"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Delete under wedged round = %v, want DeadlineExceeded", err)
	}
	if _, err := p.Get("doomed"); !errors.Is(err, ErrMarketNotFound) {
		t.Fatalf("market still routable after Delete: %v", err)
	}
	// The stale handle is draining: new mutating work is refused.
	if _, err := m.RegisterSeller(Registration{ID: "late", Lambda: 0.5, SyntheticRows: 40}); !errors.Is(err, ErrMarketClosed) {
		t.Fatalf("RegisterSeller on draining market = %v, want ErrMarketClosed", err)
	}
	if _, err := m.Trade(context.Background(), demoBuyer(90, 0.8), nil, nil); !errors.Is(err, ErrMarketClosed) {
		t.Fatalf("Trade on draining market = %v, want ErrMarketClosed", err)
	}

	// Release the wedged round; it must complete (it was admitted before
	// the close) and the drain must finish.
	close(bb.release)
	if err := <-tradeDone; err != nil {
		t.Fatalf("in-flight trade failed after release: %v", err)
	}
	drained := make(chan struct{})
	go func() { m.inFlight.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("drain never completed after round release")
	}
}

// TestBatchQuoteDeterminism pins the parallel.Map contract end-to-end: the
// same batch solved under different worker budgets yields byte-identical
// profiles, including the mixed-solver case.
func TestBatchQuoteDeterminism(t *testing.T) {
	demands := []BatchDemand{
		{Buyer: demoBuyer(100, 0.75)},
		{Buyer: demoBuyer(200, 0.8), Solver: "meanfield"},
		{Buyer: demoBuyer(300, 0.85), Solver: "general"},
		{Buyer: demoBuyer(400, 0.9), Solver: "analytic"},
		{Buyer: demoBuyer(500, 0.95)},
	}
	var want []byte
	for _, workers := range []int{1, 4, 8} {
		opts := quietOptions()
		opts.Workers = workers
		p := New(opts)
		m, err := p.Create(Spec{ID: "batch"})
		if err != nil {
			t.Fatal(err)
		}
		register(t, m, 4)
		profiles, names, err := m.QuoteBatch(context.Background(), demands)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if names[0] != "analytic" || names[1] != "meanfield" || names[2] != "general" {
			t.Fatalf("workers=%d: solver names = %v", workers, names)
		}
		got, err := json.Marshal(profiles)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if string(got) != string(want) {
			t.Fatalf("workers=%d: batch result differs from workers=1", workers)
		}
	}
}

// TestBatchQuoteReportsLowestFailingIndex pins the deterministic error
// contract: with several failing demands the batch reports the lowest
// index, regardless of worker interleaving.
func TestBatchQuoteReportsLowestFailingIndex(t *testing.T) {
	opts := quietOptions()
	opts.Workers = 4
	p := New(opts)
	m, err := p.Create(Spec{ID: "batch"})
	if err != nil {
		t.Fatal(err)
	}
	register(t, m, 3)
	demands := []BatchDemand{
		{Buyer: demoBuyer(100, 0.8)},
		{Buyer: demoBuyer(200, 0.8), Solver: "bogus"},
		{Buyer: demoBuyer(300, 0.8), Solver: "also-bogus"},
	}
	_, _, err = m.QuoteBatch(context.Background(), demands)
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 1 {
		t.Fatalf("QuoteBatch error = %v, want BatchError at index 1", err)
	}
	var fe *FieldError
	if !errors.As(err, &fe) || fe.Field != "solver" {
		t.Fatalf("QuoteBatch error = %v, want wrapped FieldError on solver", err)
	}
}

func TestSnapshotDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := quietOptions()
	opts.SnapshotDir = dir
	p := New(opts)
	for _, id := range []string{"alpha", "beta"} {
		m, err := p.Create(Spec{ID: id})
		if err != nil {
			t.Fatal(err)
		}
		register(t, m, 3)
		if _, err := m.Trade(context.Background(), demoBuyer(90, 0.8), nil, nil); err != nil {
			t.Fatalf("trade in %s: %v", id, err)
		}
	}
	if err := p.SaveAll(); err != nil {
		t.Fatalf("SaveAll: %v", err)
	}

	opts2 := quietOptions()
	opts2.SnapshotDir = dir
	p2 := New(opts2)
	ids, err := p2.RestoreAll()
	if err != nil {
		t.Fatalf("RestoreAll: %v", err)
	}
	if len(ids) != 2 {
		t.Fatalf("restored %v, want [alpha beta]", ids)
	}
	for _, id := range ids {
		orig, _ := p.Get(id)
		got, err := p2.Get(id)
		if err != nil {
			t.Fatalf("restored market %s missing: %v", id, err)
		}
		ov, gv := orig.View(), got.View()
		if len(gv.Trades) != len(ov.Trades) || !gv.Trading {
			t.Fatalf("%s: restored ledger %d trades (trading=%v), want %d", id, len(gv.Trades), gv.Trading, len(ov.Trades))
		}
		ow, _ := json.Marshal(ov.Weights)
		gw, _ := json.Marshal(gv.Weights)
		if string(ow) != string(gw) {
			t.Fatalf("%s: restored weights %s, want %s", id, gw, ow)
		}
		if got.Seed() != orig.Seed() {
			t.Fatalf("%s: restored seed %d, want %d", id, got.Seed(), orig.Seed())
		}
		// Post-restore the market keeps trading.
		if _, err := got.Trade(context.Background(), demoBuyer(120, 0.8), nil, nil); err != nil {
			t.Fatalf("%s: trade after restore: %v", id, err)
		}
	}
}

// TestCompactSnapshotRestoresLikeIndented: snapshot files are written as
// compact JSON; a directory holding the indented form older builds wrote
// must restore to the same state, and the compact file must still carry
// the "ledger" key serve_smoke.sh greps for.
func TestCompactSnapshotRestoresLikeIndented(t *testing.T) {
	compactDir, indentedDir := t.TempDir(), t.TempDir()
	opts := fastWalOptions(compactDir)
	opts.EpsilonBudget = 1e18
	p := New(opts)
	defer p.Close()
	m, err := p.Create(Spec{ID: "fmt"})
	if err != nil {
		t.Fatal(err)
	}
	register(t, m, 3)
	for i := 0; i < 3; i++ {
		if _, err := m.Trade(context.Background(), demoBuyer(90+float64(i), 0.8), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.SaveAll(); err != nil {
		t.Fatal(err)
	}
	want := canonicalState(t, m)
	compact, err := os.ReadFile(filepath.Join(compactDir, "fmt.json"))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(compact, []byte("\n")); n != 1 || !bytes.HasSuffix(compact, []byte("}\n")) {
		t.Errorf("snapshot file is not one line of compact JSON (%d newlines)", n)
	}
	if !bytes.Contains(compact, []byte(`"ledger"`)) {
		t.Error(`compact snapshot lacks the "ledger" key serve_smoke.sh greps for`)
	}
	indented, err := json.MarshalIndent(m.Snapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(indentedDir, "fmt.json"), indented, 0o644); err != nil {
		t.Fatal(err)
	}
	p.Close()
	for _, dir := range []string{compactDir, indentedDir} {
		opts2 := fastWalOptions(dir)
		opts2.EpsilonBudget = 1e18
		p2 := New(opts2)
		if ids, err := p2.RestoreAll(); err != nil || len(ids) != 1 {
			t.Fatalf("RestoreAll(%s) = %v, %v", filepath.Base(dir), ids, err)
		}
		m2, err := p2.Get("fmt")
		if err != nil {
			t.Fatal(err)
		}
		if got := canonicalState(t, m2); got != want {
			t.Errorf("restore from %s diverges\n got: %.300s\nwant: %.300s", dir, got, want)
		}
		p2.Close()
	}
}

// TestRestoreAllSkipsCorruptSnapshot: one corrupt file must not take down
// boot — it is skipped with a logged warning and every healthy market
// restores.
func TestRestoreAllSkipsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	opts := quietOptions()
	opts.SnapshotDir = dir
	p := New(opts)
	m, err := p.Create(Spec{ID: "good"})
	if err != nil {
		t.Fatal(err)
	}
	register(t, m, 2)
	if err := p.SaveAll(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Unrelated entries must be ignored outright.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "subdir.json"), 0o755); err != nil {
		t.Fatal(err)
	}

	var warnings []string
	opts2 := quietOptions()
	opts2.SnapshotDir = dir
	opts2.Logf = func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}
	p2 := New(opts2)
	ids, err := p2.RestoreAll()
	if err != nil {
		t.Fatalf("RestoreAll: %v", err)
	}
	if len(ids) != 1 || ids[0] != "good" {
		t.Fatalf("restored %v, want [good]", ids)
	}
	found := false
	for _, w := range warnings {
		if strings.Contains(w, "skipping snapshot") && strings.Contains(w, "bad.json") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no skip warning for bad.json in %q", warnings)
	}
	if _, err := p2.Get("bad"); !errors.Is(err, ErrMarketNotFound) {
		t.Fatalf("corrupt snapshot produced a market: %v", err)
	}
}

// TestLegacySnapshotRestores: a pre-pool single-market snapshot (no
// id/solver/seed fields) restores into a market unchanged.
func TestLegacySnapshotRestores(t *testing.T) {
	p := New(quietOptions())
	src, err := p.Create(Spec{ID: "src"})
	if err != nil {
		t.Fatal(err)
	}
	register(t, src, 2)
	snap := src.Snapshot()
	// Strip the pool-era fields to mimic a legacy file.
	snap.ID, snap.Solver, snap.Seed = "", "", nil
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var legacy MarketSnapshot
	if err := json.Unmarshal(raw, &legacy); err != nil {
		t.Fatal(err)
	}
	dst, err := p.Create(Spec{ID: "dst"})
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.RestoreSnapshot(&legacy); err != nil {
		t.Fatalf("restoring legacy snapshot: %v", err)
	}
	if got := len(dst.View().Sellers); got != 2 {
		t.Fatalf("restored %d sellers, want 2", got)
	}
}

// TestAccessorsAndErrorStrings sweeps the small surface the other tests
// reach only implicitly: accessors, error rendering, and registration
// validation branches.
func TestAccessorsAndErrorStrings(t *testing.T) {
	opts := quietOptions()
	opts.Workers = 3
	p := New(opts)
	if p.Metrics() == nil || p.workers != 3 || p.solver.Name() != "analytic" {
		t.Fatalf("pool accessors: metrics=%v workers=%d solver=%q", p.Metrics(), p.workers, p.solver.Name())
	}
	m, err := p.Create(Spec{ID: "acc", Solver: "meanfield"})
	if err != nil {
		t.Fatal(err)
	}
	if m.ID() != "acc" || m.Solver() != "meanfield" || m.TestSet() == nil {
		t.Fatalf("market accessors: id=%q solver=%q", m.ID(), m.Solver())
	}

	fe := &FieldError{Field: "x", Msg: "boom"}
	if s := fe.Error(); !strings.Contains(s, "x") || !strings.Contains(s, "boom") {
		t.Fatalf("FieldError.Error() = %q", s)
	}
	be := &BatchError{Index: 2, Err: fe}
	if s := be.Error(); !strings.Contains(s, "2") || !strings.Contains(s, "boom") {
		t.Fatalf("BatchError.Error() = %q", s)
	}
	if !errors.Is(be, be) || be.Unwrap() != fe {
		t.Fatal("BatchError does not unwrap its inner error")
	}

	// Registration validation branches.
	cases := []struct {
		name  string
		reg   Registration
		field string
	}{
		{"missing id", Registration{Lambda: 0.5, SyntheticRows: 10}, "id"},
		{"bad lambda", Registration{ID: "a", Lambda: 0, SyntheticRows: 10}, "lambda"},
		{"both sources", Registration{ID: "a", Lambda: 0.5, SyntheticRows: 10, Rows: [][]float64{{1, 2}}}, "synthetic_rows"},
		{"row/target mismatch", Registration{ID: "a", Lambda: 0.5, Rows: [][]float64{{1, 2}}, Targets: []float64{1, 2}}, "targets"},
		{"invalid rows", Registration{ID: "a", Lambda: 0.5, Rows: [][]float64{{1, 2}, {1}}, Targets: []float64{1, 2}}, "rows"},
		{"no data", Registration{ID: "a", Lambda: 0.5}, "rows"},
	}
	for _, tc := range cases {
		_, err := m.RegisterSeller(tc.reg)
		var got *FieldError
		if !errors.As(err, &got) || got.Field != tc.field {
			t.Errorf("%s: err = %v, want FieldError on %q", tc.name, err, tc.field)
		}
	}

	// Inline rows register fine (4 features, matching the CCPP schema the
	// synthetic sellers below use); duplicates conflict, and a seller whose
	// rows are a different width than the roster is rejected up front
	// rather than panicking the LDP mechanism at trade time.
	inline := Registration{
		ID: "inline", Lambda: 0.5,
		Rows: [][]float64{
			{1, 2, 3, 4}, {2, 3, 4, 5}, {3, 4, 5, 6},
			{4, 5, 6, 7}, {5, 6, 7, 8}, {6, 7, 8, 9},
		},
		Targets: []float64{1, 2, 3, 4, 5, 6},
	}
	if _, err := m.RegisterSeller(inline); err != nil {
		t.Fatalf("inline registration: %v", err)
	}
	if _, err := m.RegisterSeller(inline); !errors.Is(err, ErrSellerExists) {
		t.Fatalf("duplicate registration = %v, want ErrSellerExists", err)
	}
	narrow := Registration{
		ID: "narrow", Lambda: 0.5,
		Rows:    [][]float64{{1, 2}, {2, 3}, {3, 4}},
		Targets: []float64{1, 2, 3},
	}
	if _, err := m.RegisterSeller(narrow); err == nil {
		t.Fatal("mismatched feature width accepted")
	} else {
		var fe *FieldError
		if !errors.As(err, &fe) || fe.Field != "rows" {
			t.Fatalf("mismatched width err = %v, want FieldError on rows", err)
		}
	}

	// Quote with an unknown solver is a field error; trade on an empty
	// market is ErrNoSellers; registration closes after the first trade.
	if _, _, err := m.Quote(context.Background(), demoBuyer(100, 0.8), "bogus"); err == nil {
		t.Fatal("unknown solver quote succeeded")
	}
	empty, err := p.Create(Spec{ID: "empty"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.Trade(context.Background(), demoBuyer(90, 0.8), nil, nil); !errors.Is(err, ErrNoSellers) {
		t.Fatalf("trade on empty market = %v, want ErrNoSellers", err)
	}
	if _, _, err := empty.Quote(context.Background(), demoBuyer(90, 0.8), ""); !errors.Is(err, ErrNoSellers) {
		t.Fatalf("quote on empty market = %v, want ErrNoSellers", err)
	}
	register(t, m, 1)
	if _, err := m.Trade(context.Background(), demoBuyer(90, 0.8), nil, nil); err != nil {
		t.Fatalf("trade: %v", err)
	}
	// Registration no longer closes at the first trade: a late seller joins
	// mid-life at the mean of the current weights.
	late, err := m.RegisterSeller(Registration{ID: "late", Lambda: 0.5, SyntheticRows: 10})
	if err != nil {
		t.Fatalf("post-trade registration: %v", err)
	}
	if !(late.Weight > 0) {
		t.Fatalf("mid-life join weight = %g, want positive", late.Weight)
	}
}

// TestRestoreSnapshotRejections covers the snapshot guard rails: version,
// ID mismatch, non-fresh market, and bad stored sellers.
func TestRestoreSnapshotRejections(t *testing.T) {
	p := New(quietOptions())
	m, err := p.Create(Spec{ID: "guard"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreSnapshot(nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	if err := m.RestoreSnapshot(&MarketSnapshot{Version: 99}); err == nil {
		t.Fatal("unsupported version accepted")
	}
	if err := m.RestoreSnapshot(&MarketSnapshot{Version: 1, ID: "other"}); err == nil {
		t.Fatal("ID-mismatched snapshot accepted")
	}
	if err := m.RestoreSnapshot(&MarketSnapshot{Version: 1, Sellers: []StoredSeller{
		{ID: "bad", Lambda: 0.5, Rows: [][]float64{{1, 2}, {1}}, Targets: []float64{1, 2}},
	}}); err == nil {
		t.Fatal("invalid stored seller accepted")
	}
	if err := m.RestoreSnapshot(&MarketSnapshot{Version: 1, Sellers: []StoredSeller{
		{ID: "wide", Lambda: 0.5, Rows: [][]float64{{1, 2, 3}, {2, 3, 4}}, Targets: []float64{1, 2}},
		{ID: "thin", Lambda: 0.5, Rows: [][]float64{{1, 2}, {2, 3}}, Targets: []float64{1, 2}},
	}}); err == nil {
		t.Fatal("mixed-width snapshot roster accepted")
	}
	register(t, m, 1)
	if err := m.RestoreSnapshot(&MarketSnapshot{Version: 1}); err == nil {
		t.Fatal("restore into non-fresh market accepted")
	}
	// SaveAll/RestoreAll without a configured directory are errors.
	if err := p.SaveAll(); err == nil {
		t.Fatal("SaveAll without snapshot dir succeeded")
	}
	if _, err := p.RestoreAll(); err == nil {
		t.Fatal("RestoreAll without snapshot dir succeeded")
	}
	// RestoreAll on a missing directory is a clean first boot.
	opts := quietOptions()
	opts.SnapshotDir = filepath.Join(t.TempDir(), "does-not-exist")
	ids, err := New(opts).RestoreAll()
	if err != nil || ids != nil {
		t.Fatalf("RestoreAll on missing dir = (%v, %v), want (nil, nil)", ids, err)
	}
}

// TestSnapshotSeedOverride: restoring a snapshot with a different stored
// seed rebuilds the market's test set and sampling stream so post-restore
// behavior matches the saving process.
func TestSnapshotSeedOverride(t *testing.T) {
	p := New(quietOptions())
	src, err := p.Create(Spec{ID: "src"})
	if err != nil {
		t.Fatal(err)
	}
	register(t, src, 2)
	snap := src.Snapshot()
	snap.ID = "" // legacy-style file restored under a different name
	dst, err := p.Create(Spec{ID: "dst"})
	if err != nil {
		t.Fatal(err)
	}
	if dst.Seed() == src.Seed() {
		t.Fatal("test premise broken: derived seeds collide")
	}
	if err := dst.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if dst.Seed() != src.Seed() {
		t.Fatalf("restored seed %d, want the stored %d", dst.Seed(), src.Seed())
	}
}
