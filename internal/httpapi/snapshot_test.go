package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func mustUnmarshal(t *testing.T, raw []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
}

// restoreServer boots a fresh server over opts.SnapshotDir, restores it,
// and checks that exactly the default market came back.
func restoreServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(opts)
	t.Cleanup(srv.Pool().Close)
	ids, err := srv.Pool().RestoreAll()
	if err != nil {
		t.Fatalf("RestoreAll: %v", err)
	}
	if len(ids) != 1 || ids[0] != DefaultMarketID {
		t.Fatalf("restored %v, want [%s]", ids, DefaultMarketID)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestSnapshotSaveRestoreRoundTrip is the crash-safety contract: a server
// checkpointed after trading and shut down, then restored from its snapshot
// directory into a fresh server, serves the same ledger, weights and
// quotes, and continues the round numbering.
func TestSnapshotSaveRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Seed: 42, Logf: func(string, ...any) {}, SnapshotDir: dir}

	// First server: register, trade twice, checkpoint, shut down.
	srvA := NewServer(opts)
	tsA := httptest.NewServer(srvA.Handler())
	registerSynthetic(t, tsA.URL, 3)
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, tsA.URL+"/v1/trades", Demand{N: 90, V: 0.8})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("trade %d: %d (%s)", i, resp.StatusCode, body)
		}
	}
	var weightsA []float64
	getJSON(t, tsA.URL+"/v1/weights", &weightsA)
	var quoteA Quote
	{
		resp, body := postJSON(t, tsA.URL+"/v1/quote", Demand{N: 150, V: 0.8})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("quote A: %d (%s)", resp.StatusCode, body)
		}
		mustUnmarshal(t, body, &quoteA)
	}
	if err := srvA.Pool().SaveAll(); err != nil {
		t.Fatalf("SaveAll: %v", err)
	}
	tsA.Close()
	srvA.Pool().Close()

	// No stray temp files: the write-temp-then-rename must clean up.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".share-snapshot-") {
			t.Errorf("leftover snapshot temp file %s", e.Name())
		}
	}

	// Second server: restore from the directory, verify.
	_, tsB := restoreServer(t, opts)

	var weightsB []float64
	getJSON(t, tsB.URL+"/v1/weights", &weightsB)
	if !reflect.DeepEqual(weightsA, weightsB) {
		t.Errorf("weights after restore = %v, want %v", weightsB, weightsA)
	}
	var trades []TradeResult
	getJSON(t, tsB.URL+"/v1/trades", &trades)
	if len(trades) != 2 {
		t.Fatalf("restored ledger = %d trades, want 2", len(trades))
	}
	var quoteB Quote
	{
		resp, body := postJSON(t, tsB.URL+"/v1/quote", Demand{N: 150, V: 0.8})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("quote B: %d (%s)", resp.StatusCode, body)
		}
		mustUnmarshal(t, body, &quoteB)
	}
	if quoteA.ProductPrice != quoteB.ProductPrice || quoteA.DataPrice != quoteB.DataPrice {
		t.Errorf("restored quote %+v != original %+v", quoteB, quoteA)
	}

	// Trading resumes with continued round numbering, and registration is
	// still open: a late seller joins the restored market mid-life.
	resp, body := postJSON(t, tsB.URL+"/v1/trades", Demand{N: 90, V: 0.8})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("post-restore trade: %d (%s)", resp.StatusCode, body)
	}
	var tr TradeResult
	mustUnmarshal(t, body, &tr)
	if tr.Round != 3 {
		t.Errorf("post-restore round = %d, want 3", tr.Round)
	}
	resp, _ = postJSON(t, tsB.URL+"/v1/sellers", SellerRegistration{ID: "late", Lambda: 0.5, SyntheticRows: 10})
	if resp.StatusCode != http.StatusCreated {
		t.Errorf("registration after restored trades = %d, want 201", resp.StatusCode)
	}
}

func TestSnapshotRestorePreTrading(t *testing.T) {
	// A roster checkpointed before any trade restores on its own.
	opts := Options{Seed: 7, Logf: func(string, ...any) {}, SnapshotDir: t.TempDir()}
	srvA := NewServer(opts)
	tsA := httptest.NewServer(srvA.Handler())
	registerSynthetic(t, tsA.URL, 2)
	if err := srvA.Pool().SaveAll(); err != nil {
		t.Fatalf("SaveAll: %v", err)
	}
	tsA.Close()
	srvA.Pool().Close()

	_, tsB := restoreServer(t, opts)
	var infos []SellerInfo
	getJSON(t, tsB.URL+"/v1/sellers", &infos)
	if len(infos) != 2 {
		t.Fatalf("restored sellers = %d, want 2", len(infos))
	}
	var health map[string]any
	getJSON(t, tsB.URL+"/v1/health", &health)
	if health["trading"] != false {
		t.Errorf("restored pre-trading server reports trading: %v", health)
	}
}

// TestSnapshotRestoreRequiresFreshServer: restoring over a default market
// that already holds state is refused, and the live state is kept.
func TestSnapshotRestoreRequiresFreshServer(t *testing.T) {
	opts := Options{Seed: 7, Logf: func(string, ...any) {}, SnapshotDir: t.TempDir()}
	srv := NewServer(opts)
	t.Cleanup(srv.Pool().Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	registerSynthetic(t, ts.URL, 2)
	if err := srv.Pool().SaveAll(); err != nil {
		t.Fatalf("SaveAll: %v", err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/sellers", SellerRegistration{ID: "late", Lambda: 0.5, SyntheticRows: 10})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("registration after checkpoint: %d (%s)", resp.StatusCode, body)
	}
	ids, err := srv.Pool().RestoreAll()
	if err != nil {
		t.Fatalf("RestoreAll: %v", err)
	}
	if len(ids) != 0 {
		t.Errorf("restore into a non-fresh server restored %v", ids)
	}
	var infos []SellerInfo
	getJSON(t, ts.URL+"/v1/sellers", &infos)
	if len(infos) != 3 {
		t.Errorf("sellers after refused restore = %d, want the live 3", len(infos))
	}
}

// TestSnapshotRestoreMissingFile: a snapshot directory that does not exist
// yet is a first boot — nothing restores, nothing fails, and the default
// market starts empty.
func TestSnapshotRestoreMissingFile(t *testing.T) {
	srv := NewServer(Options{Seed: 1, Logf: func(string, ...any) {}, SnapshotDir: filepath.Join(t.TempDir(), "absent")})
	t.Cleanup(srv.Pool().Close)
	ids, err := srv.Pool().RestoreAll()
	if err != nil || len(ids) != 0 {
		t.Fatalf("RestoreAll over a missing directory = %v, %v; want nothing restored and no error", ids, err)
	}
	m, err := srv.Pool().Get(srv.DefaultMarket())
	if err != nil {
		t.Fatal(err)
	}
	if info := m.Info(); info.Sellers != 0 || info.Trades != 0 {
		t.Errorf("default market after first boot = %+v, want empty", info)
	}
}
