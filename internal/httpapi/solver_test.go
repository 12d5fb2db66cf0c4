package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"share/internal/obs"
)

func TestQuoteSolverSelection(t *testing.T) {
	ts := newTestServer(t)
	registerSynthetic(t, ts.URL, 4)

	// Default: the analytic backend, exact, no error bound.
	resp, body := postJSON(t, ts.URL+"/v1/quote", Demand{N: 200, V: 0.8})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default quote: %d %s", resp.StatusCode, body)
	}
	var def Quote
	if err := json.Unmarshal(body, &def); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if def.Solver != "analytic" {
		t.Errorf("default quote solver = %q, want analytic", def.Solver)
	}
	if def.Approx != nil {
		t.Error("analytic quote carries an approx bound")
	}

	// Per-request mean-field: same prices (shared Stage 1–2 closed forms),
	// Theorem 5.1 bound attached.
	resp, body = postJSON(t, ts.URL+"/v1/quote", Demand{N: 200, V: 0.8, Solver: "meanfield"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("meanfield quote: %d %s", resp.StatusCode, body)
	}
	var mf Quote
	if err := json.Unmarshal(body, &mf); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if mf.Solver != "meanfield" {
		t.Errorf("quote solver = %q, want meanfield", mf.Solver)
	}
	if mf.Approx == nil {
		t.Fatal("mean-field quote carries no Theorem 5.1 bound")
	}
	if mf.Approx.ErrorLo >= 0 || mf.Approx.ErrorHi <= 0 {
		t.Errorf("degenerate error interval (%v, %v)", mf.Approx.ErrorLo, mf.Approx.ErrorHi)
	}
	if mf.ProductPrice != def.ProductPrice || mf.DataPrice != def.DataPrice {
		t.Errorf("mean-field prices (%v, %v) differ from analytic (%v, %v)",
			mf.ProductPrice, mf.DataPrice, def.ProductPrice, def.DataPrice)
	}

	// Unknown backend: a 400 naming the field, not a 500.
	resp, body = postJSON(t, ts.URL+"/v1/quote", Demand{N: 200, V: 0.8, Solver: "simplex"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown solver: %d %s, want 400", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "solver") {
		t.Errorf("error %s does not name the solver field", body)
	}
}

func TestTradeSolverSelection(t *testing.T) {
	ts := newTestServer(t)
	registerSynthetic(t, ts.URL, 4)

	resp, body := postJSON(t, ts.URL+"/v1/trades", Demand{N: 200, V: 0.8, Solver: "meanfield"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("trade: %d %s", resp.StatusCode, body)
	}
	var tr TradeResult
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if tr.Solver != "meanfield" || tr.Quote.Solver != "meanfield" {
		t.Errorf("trade solver = %q / quote %q, want meanfield", tr.Solver, tr.Quote.Solver)
	}
	if tr.Quote.Approx == nil {
		t.Error("mean-field trade quote carries no Theorem 5.1 bound")
	}

	// The override is per-trade: the next plain trade is analytic again.
	resp, body = postJSON(t, ts.URL+"/v1/trades", Demand{N: 200, V: 0.8})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("second trade: %d %s", resp.StatusCode, body)
	}
	tr = TradeResult{}
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if tr.Solver != "analytic" {
		t.Errorf("post-override trade solver = %q, want analytic", tr.Solver)
	}

	// Per-backend latency series in /v1/metrics. Like trade/valuation, the
	// solve series record samples via Observe (request counters stay with
	// the HTTP endpoints), so presence is the contract; the mean-field trade
	// above must have left a sample in its series.
	var snap obs.Snapshot
	getJSON(t, ts.URL+"/v1/metrics", &snap)
	for _, name := range []string{"solve/analytic", "solve/general", "solve/meanfield"} {
		if _, ok := snap.Endpoints[name]; !ok {
			t.Errorf("metrics omit the %s series", name)
		}
	}
}

// TestServerDefaultSolver: booting with -solver meanfield makes it the
// default for unqualified requests, while "analytic" stays reachable
// per-request.
func TestServerDefaultSolver(t *testing.T) {
	srv := NewServer(Options{Seed: 1, Logf: func(string, ...any) {}, Solver: "meanfield"})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	registerSynthetic(t, ts.URL, 4)

	resp, body := postJSON(t, ts.URL+"/v1/quote", Demand{N: 200, V: 0.8})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quote: %d %s", resp.StatusCode, body)
	}
	var q Quote
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if q.Solver != "meanfield" || q.Approx == nil {
		t.Errorf("server-default quote solver = %q (approx %v), want meanfield with bound", q.Solver, q.Approx)
	}

	resp, body = postJSON(t, ts.URL+"/v1/quote", Demand{N: 200, V: 0.8, Solver: "analytic"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analytic quote: %d %s", resp.StatusCode, body)
	}
	q = Quote{}
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if q.Solver != "analytic" || q.Approx != nil {
		t.Errorf("per-request analytic override returned solver %q (approx %v)", q.Solver, q.Approx)
	}
}

// TestSnapshotRoundTripKeepsSolver: a market checkpointed under a
// non-default backend restores with that backend still active.
func TestSnapshotRoundTripKeepsSolver(t *testing.T) {
	dir := t.TempDir()

	srv := NewServer(Options{Seed: 1, Logf: func(string, ...any) {}, Solver: "meanfield", SnapshotDir: dir})
	ts := httptest.NewServer(srv.Handler())
	registerSynthetic(t, ts.URL, 4)
	resp, body := postJSON(t, ts.URL+"/v1/trades", Demand{N: 200, V: 0.8})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("trade: %d %s", resp.StatusCode, body)
	}
	if err := srv.Pool().SaveAll(); err != nil {
		t.Fatalf("SaveAll: %v", err)
	}
	ts.Close()
	srv.Pool().Close()

	// Restore into a server booted with the analytic default.
	_, ts2 := restoreServer(t, Options{Seed: 1, Logf: func(string, ...any) {}, SnapshotDir: dir})

	resp, body = postJSON(t, ts2.URL+"/v1/trades", Demand{N: 200, V: 0.8})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("post-restore trade: %d %s", resp.StatusCode, body)
	}
	var tr TradeResult
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if tr.Solver != "meanfield" {
		t.Errorf("post-restore trade solver = %q, want the snapshot's meanfield", tr.Solver)
	}
}
