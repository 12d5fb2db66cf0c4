package market

import (
	"bytes"
	"context"
	"testing"

	"share/internal/core"
	"share/internal/solve"
)

// paperBuyerFor mirrors testMarket's buyer sizing for m sellers.
func paperBuyerFor(m int) core.Buyer {
	b := core.PaperBuyer()
	b.N = float64(m * 30)
	return b
}

// testMarketSolver is testMarket with a configured equilibrium backend.
func testMarketSolver(t *testing.T, m int, seed int64, backend solve.Backend) (*Market, *Market) {
	t.Helper()
	mkt, _ := testMarket(t, m, nil, seed)
	withBackend, _ := testMarketWith(t, m, seed, Config{Solver: backend})
	return mkt, withBackend
}

func TestRunRoundRecordsSolver(t *testing.T) {
	mkt, buyer := testMarket(t, 5, nil, 30)
	tx, err := mkt.RunRound(buyer)
	if err != nil {
		t.Fatalf("RunRound: %v", err)
	}
	if tx.Solver != solve.DefaultName {
		t.Errorf("default round solver = %q, want %q", tx.Solver, solve.DefaultName)
	}
	if tx.Profile.Approx != nil {
		t.Error("analytic round attached an approximation bound")
	}
}

func TestMarketSolverBackend(t *testing.T) {
	defaultMkt, mfMkt := testMarketSolver(t, 5, 31, solve.MeanField{})
	if got := mfMkt.Solver(); got != "meanfield" {
		t.Fatalf("Solver() = %q, want meanfield", got)
	}
	buyer := paperBuyerFor(5)
	tx, err := mfMkt.RunRound(buyer)
	if err != nil {
		t.Fatalf("mean-field RunRound: %v", err)
	}
	if tx.Solver != "meanfield" {
		t.Errorf("round solver = %q, want meanfield", tx.Solver)
	}
	if tx.Profile.Approx == nil {
		t.Error("mean-field round carries no Theorem 5.1 bound")
	}
	// Stages 1–2 share the closed forms, so prices match the analytic market.
	ref, err := defaultMkt.RunRound(buyer)
	if err != nil {
		t.Fatalf("analytic RunRound: %v", err)
	}
	if tx.Profile.PM != ref.Profile.PM || tx.Profile.PD != ref.Profile.PD {
		t.Errorf("mean-field prices (%v, %v) differ from analytic (%v, %v)",
			tx.Profile.PM, tx.Profile.PD, ref.Profile.PM, ref.Profile.PD)
	}
}

func TestRunRoundBackendOverride(t *testing.T) {
	mkt, buyer := testMarket(t, 5, nil, 32)
	tx, err := mkt.RunRoundBackend(context.Background(), buyer, nil, solve.MeanField{})
	if err != nil {
		t.Fatalf("RunRoundBackend: %v", err)
	}
	if tx.Solver != "meanfield" {
		t.Errorf("override round solver = %q, want meanfield", tx.Solver)
	}
	if mkt.Solver() != solve.DefaultName {
		t.Errorf("per-round override changed the market default to %q", mkt.Solver())
	}
	// The next unqualified round is back on the market's own backend.
	tx2, err := mkt.RunRound(buyer)
	if err != nil {
		t.Fatalf("RunRound after override: %v", err)
	}
	if tx2.Solver != solve.DefaultName {
		t.Errorf("post-override round solver = %q, want %q", tx2.Solver, solve.DefaultName)
	}
}

// TestSnapshotKeepsSolver: a restored market keeps the backend it was saved
// with, even when the restoring process booted with a different default.
func TestSnapshotKeepsSolver(t *testing.T) {
	_, mfMkt := testMarketSolver(t, 5, 33, solve.MeanField{})
	buyer := paperBuyerFor(5)
	if _, err := mfMkt.RunRound(buyer); err != nil {
		t.Fatalf("round: %v", err)
	}
	var buf bytes.Buffer
	if err := mfMkt.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	snap, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if snap.Solver != "meanfield" {
		t.Fatalf("snapshot solver = %q, want meanfield", snap.Solver)
	}

	fresh, _ := testMarket(t, 5, nil, 33)
	if err := fresh.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got := fresh.Solver(); got != "meanfield" {
		t.Errorf("restored market solver = %q, want meanfield", got)
	}
	tx, err := fresh.RunRound(buyer)
	if err != nil {
		t.Fatalf("post-restore round: %v", err)
	}
	if tx.Solver != "meanfield" {
		t.Errorf("post-restore round solver = %q, want meanfield", tx.Solver)
	}

	// Legacy snapshots carry no solver and must keep the restoring market's.
	snap.Solver = ""
	plain, _ := testMarket(t, 5, nil, 33)
	if err := plain.Restore(snap); err != nil {
		t.Fatalf("Restore legacy: %v", err)
	}
	if got := plain.Solver(); got != solve.DefaultName {
		t.Errorf("legacy restore switched solver to %q", got)
	}
}

// Solver names the market's equilibrium backend.
func (m *Market) Solver() string { return m.backend.Name() }
