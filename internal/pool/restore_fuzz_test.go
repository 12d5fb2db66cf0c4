package pool

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"share/internal/core"
)

// restoreWatchdog bounds how long a restored market may take to answer a
// quote or a trade. A healthy answer takes milliseconds.
const restoreWatchdog = 10 * time.Second

// withinWatchdog runs fn and fails the test if it has not returned within
// restoreWatchdog. A hung fn keeps its goroutine; the test stops waiting.
func withinWatchdog(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(restoreWatchdog):
		t.Fatalf("%s did not return within %v", what, restoreWatchdog)
	}
}

// tradedSnapshot returns the SaveAll snapshot of a 3-seller market after
// two trades. The sellers hold few rows and the market commits
// asynchronously, so a fuzzer mutating the file runs many inputs a second.
func tradedSnapshot(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	opts := quietOptions()
	opts.SnapshotDir = dir
	p := New(opts)
	defer p.Close()
	m, err := p.Create(Spec{ID: "m", Durability: "async"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.RegisterSeller(Registration{ID: fmt.Sprintf("s%d", i+1), Lambda: 0.3 + 0.1*float64(i), SyntheticRows: 8}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := m.Trade(context.Background(), demoBuyer(90, 0.8), nil, nil); err != nil {
			t.Fatalf("trade %d: %v", i+1, err)
		}
	}
	if err := p.SaveAll(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "m"+snapshotExt))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// withWeight returns snapshot raw with the market's weight i set to w.
func withWeight(t *testing.T, raw []byte, i int, w float64) []byte {
	t.Helper()
	var snap MarketSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	snap.Market.Weights[i] = w
	out, err := json.Marshal(&snap)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// restoreFrom restores a fresh pool from one market snapshot file holding
// raw and returns the pool with the IDs it restored.
func restoreFrom(t *testing.T, raw []byte) (*Pool, []string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "m"+snapshotExt), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	opts := quietOptions()
	opts.SnapshotDir = dir
	opts.Durability = "async"
	p := New(opts)
	ids, _ := p.RestoreAll()
	return p, ids
}

// TestRestoredNonFiniteWeightsRefuseQuotesAndTrades: a snapshot whose
// weight is finite but huge (1e308) restores, but its equilibrium is not
// finite, so a quote and a trade each return an error at once instead of
// serving +Inf or spinning in the piece allocation.
func TestRestoredNonFiniteWeightsRefuseQuotesAndTrades(t *testing.T) {
	p, ids := restoreFrom(t, withWeight(t, tradedSnapshot(t), 2, 1e308))
	if len(ids) != 1 {
		t.Fatalf("restored %v, want [m]", ids)
	}
	m, err := p.Get("m")
	if err != nil {
		t.Fatal(err)
	}
	var quoteErr, tradeErr error
	withinWatchdog(t, "quote", func() {
		_, _, quoteErr = m.Quote(context.Background(), demoBuyer(90, 0.8), "")
	})
	if !errors.Is(quoteErr, core.ErrNotFinite) {
		t.Errorf("quote error %v, want core.ErrNotFinite", quoteErr)
	}
	withinWatchdog(t, "trade", func() {
		_, tradeErr = m.Trade(context.Background(), demoBuyer(90, 0.8), nil, nil)
	})
	if !errors.Is(tradeErr, core.ErrNotFinite) {
		t.Errorf("trade error %v, want core.ErrNotFinite", tradeErr)
	}
	p.Close()
}

// FuzzRestoreSnapshot writes arbitrary bytes as one market's snapshot file
// and restores a pool from it. Restore may refuse the file; every market it
// does restore must answer a quote and then a trade, with a result or an
// error, within restoreWatchdog. The committed corpus holds a traded
// market's SaveAll snapshot, a spec-only snapshot and the traded snapshot
// with one weight set to 1e308.
func FuzzRestoreSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		p, ids := restoreFrom(t, raw)
		for _, id := range ids {
			m, err := p.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			withinWatchdog(t, "quote", func() {
				_, _, _ = m.Quote(context.Background(), demoBuyer(90, 0.8), "")
			})
			withinWatchdog(t, "trade", func() {
				_, _ = m.Trade(context.Background(), demoBuyer(90, 0.8), nil, nil)
			})
		}
		// Closed only when nothing hung: Close waits for in-flight trades.
		p.Close()
	})
}
