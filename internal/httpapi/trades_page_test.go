package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"share/internal/core"
	"share/internal/market"
)

// TestTradePagesServeReturnedTrades: every GET /v2/markets/{id}/trades
// page, at every offset and limit, is byte for byte tradeResult of the
// transactions Trade returned, with the full count in X-Total-Count — on a
// server without a snapshot directory and on a persisted one whose history
// lies in WAL frames, in a compaction snapshot, and in both after SaveAll,
// Close and a restore into a new server.
func TestTradePagesServeReturnedTrades(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		opts := Options{Seed: 3, Logf: func(string, ...any) {}, SnapshotDir: dir, EpsilonBudget: 100}
		srv := NewServer(opts)
		m, err := srv.Pool().Get(srv.DefaultMarket())
		if err != nil {
			t.Fatal(err)
		}
		addSellers(t, m, 4)
		var trades []*market.Transaction
		trade := func(n int) {
			t.Helper()
			for i := 0; i < n; i++ {
				b := core.PaperBuyer()
				b.N = float64(60 + 10*len(trades))
				tx, err := m.Trade(context.Background(), b, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				trades = append(trades, tx)
			}
		}
		trade(3)
		if dir != "" {
			if err := srv.Pool().SaveAll(); err != nil { // rounds 1-3 into the snapshot
				t.Fatal(err)
			}
		}
		trade(3)
		checkTradePages(t, srv, trades)
		if dir == "" {
			continue
		}
		if err := srv.Pool().SaveAll(); err != nil {
			t.Fatal(err)
		}
		srv.Pool().Close()
		srv = NewServer(opts)
		if _, err := srv.Pool().RestoreAll(); err != nil {
			t.Fatal(err)
		}
		checkTradePages(t, srv, trades)
		srv.Pool().Close()
	}
}

// checkTradePages requests every page of srv's default market and
// requires want's rendering.
func checkTradePages(t *testing.T, srv *Server, want []*market.Transaction) {
	t.Helper()
	h := srv.Handler()
	for lo := 0; lo <= len(want)+1; lo++ {
		for limit := 0; lo+limit <= len(want)+1; limit++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v2/markets/default/trades?offset=%d&limit=%d", lo, limit), nil))
			if rec.Code != http.StatusOK || rec.Header().Get("X-Total-Count") != strconv.Itoa(len(want)) {
				t.Fatalf("offset %d limit %d: status %d, count %q: %s", lo, limit, rec.Code, rec.Header().Get("X-Total-Count"), rec.Body)
			}
			page := make([]TradeResult, 0)
			for _, tx := range want[min(lo, len(want)):min(lo+limit, len(want))] {
				var res TradeResult
				tradeResult(&res, tx)
				page = append(page, res)
			}
			body, err := json.Marshal(page)
			if err != nil {
				t.Fatal(err)
			}
			if got := rec.Body.String(); got != string(body)+"\n" {
				t.Fatalf("offset %d limit %d:\n got: %.300s\nwant: %.300s", lo, limit, got, body)
			}
		}
	}
}
