package pool

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"share/internal/dataset"
	"share/internal/product"
)

// admissionSpec builds a Spec with explicit per-market admission overrides.
func admissionSpec(id string, conc, queue int) Spec {
	return Spec{ID: id, TradeConcurrency: &conc, TradeQueue: &queue}
}

// TestAdmissionRejectsWhenQueueFull: with one slot and no waiting room, a
// second concurrent trade is refused immediately with a typed OverloadError
// that unwraps to ErrOverloaded and carries a positive Retry-After hint.
func TestAdmissionRejectsWhenQueueFull(t *testing.T) {
	p := New(quietOptions())
	m, err := p.Create(admissionSpec("tight", 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if info := m.Info(); info.TradeConcurrency != 1 || info.TradeQueue != 0 {
		t.Fatalf("admission config = %d/%d, want 1/0", info.TradeConcurrency, info.TradeQueue)
	}
	register(t, m, 3)

	bb := newBlockingBuilder()
	wedged := make(chan error, 1)
	go func() {
		_, err := m.Trade(context.Background(), demoBuyer(90, 0.8), bb, nil)
		wedged <- err
	}()
	select {
	case <-bb.started:
	case <-time.After(10 * time.Second):
		t.Fatal("first trade never reached manufacturing")
	}

	_, err = m.Trade(context.Background(), demoBuyer(90, 0.8), nil, nil)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second trade = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("second trade error type = %T, want *OverloadError", err)
	}
	if oe.Market != "tight" || oe.Queue != 0 || oe.RetryAfter <= 0 {
		t.Errorf("overload error = %+v, want market tight, queue 0, positive hint", oe)
	}

	snap := p.Metrics().Snapshot()
	if got := snap.Counters["market/tight/trades_rejected"]; got != 1 {
		t.Errorf("trades_rejected = %d, want 1", got)
	}

	// Release the wedge: the first trade lands, and with the slot free a
	// retried trade is admitted.
	close(bb.release)
	if err := <-wedged; err != nil {
		t.Fatalf("wedged trade failed after release: %v", err)
	}
	if _, err := m.Trade(context.Background(), demoBuyer(90, 0.8), nil, nil); err != nil {
		t.Fatalf("retried trade after release: %v", err)
	}
	if got := len(m.View().Trades); got != 2 {
		t.Errorf("ledger = %d trades, want 2", got)
	}
	snap = p.Metrics().Snapshot()
	if got := snap.Counters["market/tight/trades_admitted"]; got != 2 {
		t.Errorf("trades_admitted = %d, want 2", got)
	}
}

// TestAdmissionQueueWaitsForSlot: a trade that finds the slot busy but the
// waiting room open parks until the slot frees, then completes — it is
// never rejected.
func TestAdmissionQueueWaitsForSlot(t *testing.T) {
	p := New(quietOptions())
	m, err := p.Create(admissionSpec("queued", 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	register(t, m, 3)

	bb := newBlockingBuilder()
	first := make(chan error, 1)
	go func() {
		_, err := m.Trade(context.Background(), demoBuyer(90, 0.8), bb, nil)
		first <- err
	}()
	select {
	case <-bb.started:
	case <-time.After(10 * time.Second):
		t.Fatal("first trade never reached manufacturing")
	}

	second := make(chan error, 1)
	go func() {
		_, err := m.Trade(context.Background(), demoBuyer(90, 0.8), nil, nil)
		second <- err
	}()
	// The waiter must be parked, not failed: give it a moment to show up in
	// the queue-depth gauge, then confirm it has not returned.
	deadline := time.Now().Add(5 * time.Second)
	for p.Metrics().Snapshot().Gauges["market/queued/queue_depth"] != 1 {
		if time.Now().After(deadline) {
			t.Fatal("queued trade never registered in the depth gauge")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-second:
		t.Fatalf("queued trade returned early: %v", err)
	default:
	}

	close(bb.release)
	if err := <-first; err != nil {
		t.Fatalf("first trade: %v", err)
	}
	if err := <-second; err != nil {
		t.Fatalf("queued trade: %v", err)
	}
	if got := len(m.View().Trades); got != 2 {
		t.Errorf("ledger = %d trades, want 2", got)
	}
	if got := p.Metrics().Snapshot().Gauges["market/queued/queue_depth"]; got != 0 {
		t.Errorf("queue depth after drain = %d, want 0", got)
	}
}

// TestAdmissionQueuedTradeHonorsContext: a parked trade abandons the queue
// when its context is canceled, and the queue slot it held is returned.
func TestAdmissionQueuedTradeHonorsContext(t *testing.T) {
	p := New(quietOptions())
	m, err := p.Create(admissionSpec("cancel", 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	register(t, m, 3)

	bb := newBlockingBuilder()
	first := make(chan error, 1)
	go func() {
		_, err := m.Trade(context.Background(), demoBuyer(90, 0.8), bb, nil)
		first <- err
	}()
	select {
	case <-bb.started:
	case <-time.After(10 * time.Second):
		t.Fatal("first trade never reached manufacturing")
	}

	ctx, cancel := context.WithCancel(context.Background())
	second := make(chan error, 1)
	go func() {
		_, err := m.Trade(ctx, demoBuyer(90, 0.8), nil, nil)
		second <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for p.Metrics().Snapshot().Gauges["market/cancel/queue_depth"] != 1 {
		if time.Now().After(deadline) {
			t.Fatal("queued trade never registered in the depth gauge")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-second:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled waiter = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled waiter never returned")
	}
	// The abandoned queue position is free again: a new trade queues (and
	// completes once the wedge clears) rather than being rejected.
	third := make(chan error, 1)
	go func() {
		_, err := m.Trade(context.Background(), demoBuyer(90, 0.8), nil, nil)
		third <- err
	}()
	close(bb.release)
	if err := <-first; err != nil {
		t.Fatalf("first trade: %v", err)
	}
	if err := <-third; err != nil {
		t.Fatalf("requeued trade: %v", err)
	}
}

// TestAdmissionSpecValidation: per-market overrides are validated at
// creation with field-level errors.
func TestAdmissionSpecValidation(t *testing.T) {
	p := New(quietOptions())
	zero, negative := 0, -1
	var fe *FieldError
	if _, err := p.Create(Spec{ID: "a", TradeConcurrency: &zero}); !errors.As(err, &fe) || fe.Field != "trade_concurrency" {
		t.Errorf("zero concurrency = %v, want FieldError on trade_concurrency", err)
	}
	if _, err := p.Create(Spec{ID: "b", TradeQueue: &negative}); !errors.As(err, &fe) || fe.Field != "trade_queue" {
		t.Errorf("negative queue = %v, want FieldError on trade_queue", err)
	}
	// An explicit zero queue is valid: no waiting room at all.
	m, err := p.Create(Spec{ID: "c", TradeQueue: &zero})
	if err != nil {
		t.Fatalf("zero queue rejected: %v", err)
	}
	if info := m.Info(); info.TradeQueue != 0 || info.TradeConcurrency != DefaultTradeConcurrency {
		t.Errorf("explicit-zero queue info = %d/%d, want %d/0", info.TradeConcurrency, info.TradeQueue, DefaultTradeConcurrency)
	}
}

// TestAdmissionPoolDefaults: pool-level Options set every market's envelope
// unless the Spec overrides it.
func TestAdmissionPoolDefaults(t *testing.T) {
	opts := quietOptions()
	opts.TradeConcurrency = 2
	opts.TradeQueue = 7
	p := New(opts)
	m, err := p.Create(Spec{ID: "inherit"})
	if err != nil {
		t.Fatal(err)
	}
	if info := m.Info(); info.TradeConcurrency != 2 || info.TradeQueue != 7 {
		t.Errorf("inherited admission = %d/%d, want 2/7", info.TradeConcurrency, info.TradeQueue)
	}
	three := 3
	o, err := p.Create(Spec{ID: "override", TradeQueue: &three})
	if err != nil {
		t.Fatal(err)
	}
	if info := o.Info(); info.TradeConcurrency != 2 || info.TradeQueue != 3 {
		t.Errorf("overridden admission = %d/%d, want 2/3", info.TradeConcurrency, info.TradeQueue)
	}

	// Negative pool-level queue means "no waiting room anywhere".
	opts = quietOptions()
	opts.TradeQueue = -1
	none, err := New(opts).Create(Spec{ID: "bare"})
	if err != nil {
		t.Fatal(err)
	}
	if info := none.Info(); info.TradeQueue != 0 {
		t.Errorf("negative pool queue → market queue = %d, want 0", info.TradeQueue)
	}
}

// panicOnceBuilder panics in its first Build and manufactures OLS after.
type panicOnceBuilder struct{ fired atomic.Bool }

func (b *panicOnceBuilder) Name() string { return "panic-once" }

func (b *panicOnceBuilder) Build(train, test *dataset.Dataset) (product.Report, error) {
	if b.fired.CompareAndSwap(false, true) {
		panic("manufacturing failed")
	}
	return product.OLS{}.Build(train, test)
}

// TestPanickingTradeReleasesSlot: a round that panics must hand back its
// admission slot as it unwinds. With the default single slot, a leaked
// one left every later trade on the market waiting out its context.
func TestPanickingTradeReleasesSlot(t *testing.T) {
	p := New(quietOptions())
	m, err := p.Create(Spec{ID: "panics"})
	if err != nil {
		t.Fatal(err)
	}
	if info := m.Info(); info.TradeConcurrency != 1 {
		t.Fatalf("test premise: default trade concurrency %d, want 1", info.TradeConcurrency)
	}
	register(t, m, 3)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the panicking builder's trade did not panic")
			}
		}()
		m.Trade(context.Background(), demoBuyer(90, 0.8), &panicOnceBuilder{}, nil)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := m.Trade(ctx, demoBuyer(90, 0.8), nil, nil); err != nil {
		t.Fatalf("trade after a panicked round: %v", err)
	}
}
