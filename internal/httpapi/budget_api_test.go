package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
)

func doGet(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp, raw
}

// createBudgetMarket creates a market with the given per-seller ε budget and
// registers n synthetic sellers in it.
func createBudgetMarket(t *testing.T, base, id string, eps float64, n int) {
	t.Helper()
	resp, body := postJSON(t, base+"/v2/markets", MarketSpec{ID: id, EpsilonBudget: &eps})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create market: %d %s", resp.StatusCode, body)
	}
	for i := 0; i < n; i++ {
		resp, body := postJSON(t, base+"/v2/markets/"+id+"/sellers", SellerRegistration{
			ID:            fmt.Sprintf("S%d", i),
			Lambda:        0.2 + 0.1*float64(i),
			SyntheticRows: 120,
		})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("register seller %d: %d %s", i, resp.StatusCode, body)
		}
	}
}

func TestSellerResourceEndpoint(t *testing.T) {
	ts := newTestServer(t)
	createBudgetMarket(t, ts.URL, "bm", 1e15, 2)

	var info MarketInfo
	getJSON(t, ts.URL+"/v2/markets/bm", &info)
	if info.EpsilonBudget != 1e15 || info.Composition != "basic" {
		t.Fatalf("market info = %+v, want epsilon_budget 1e15 composition basic", info)
	}

	var got SellerInfo
	if resp := getJSON(t, ts.URL+"/v2/markets/bm/sellers/S1", &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET seller = %d", resp.StatusCode)
	}
	if got.ID != "S1" || got.Rows != 120 || got.EpsilonBudget != 1e15 || got.EpsilonSpent != 0 || got.RosterEpoch == 0 {
		t.Fatalf("seller resource = %+v", got)
	}

	// The listing serves the exact same object shape.
	var listed []SellerInfo
	getJSON(t, ts.URL+"/v2/markets/bm/sellers", &listed)
	if len(listed) != 2 || listed[1] != got {
		t.Fatalf("listing entry %+v diverges from GET %+v", listed, got)
	}

	// A trade charges every participating seller's ledger; the resource
	// reflects it.
	if resp, body := postJSON(t, ts.URL+"/v2/markets/bm/trades", Demand{N: 60, V: 0.8}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("trade: %d %s", resp.StatusCode, body)
	}
	getJSON(t, ts.URL+"/v2/markets/bm/sellers/S1", &got)
	if !(got.EpsilonSpent > 0) {
		t.Fatalf("epsilon_spent = %g after a trade, want > 0", got.EpsilonSpent)
	}

	// Budget-free markets omit the budget fields entirely.
	registerSynthetic(t, ts.URL, 1)
	var plain SellerInfo
	getJSON(t, ts.URL+"/v2/markets/default/sellers/S0", &plain)
	if plain.EpsilonBudget != 0 || plain.EpsilonSpent != 0 || plain.Discount != 0 {
		t.Fatalf("budget-free seller = %+v, want zero budget fields", plain)
	}
}

// TestSellerSubResourceErrorEnvelopes pins the unified envelope across every
// seller sub-resource's unknown-seller path: same status, code and field for
// GET, DELETE and POST budget.
func TestSellerSubResourceErrorEnvelopes(t *testing.T) {
	ts := newTestServer(t)
	createBudgetMarket(t, ts.URL, "env", 1e15, 1)

	check := func(op string, resp *http.Response, body []byte) {
		t.Helper()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s unknown seller = %d (%s), want 404", op, resp.StatusCode, body)
		}
		if e := decodeErrorEnvelope(t, body); e.Code != CodeSellerNotFound || e.Field != "sid" {
			t.Errorf("%s unknown seller envelope = %+v, want seller_not_found on sid", op, e)
		}
	}
	resp, body := doGet(t, ts.URL+"/v2/markets/env/sellers/ghost")
	check("GET", resp, body)
	resp, body = doDelete(t, ts.URL+"/v2/markets/env/sellers/ghost")
	check("DELETE", resp, body)
	resp, body = postJSON(t, ts.URL+"/v2/markets/env/sellers/ghost/budget", TopUpRequest{Add: 1})
	check("POST budget", resp, body)
}

func TestBudgetTopUpEndpoint(t *testing.T) {
	ts := newTestServer(t)
	createBudgetMarket(t, ts.URL, "topup", 5, 1)

	resp, body := postJSON(t, ts.URL+"/v2/markets/topup/sellers/S0/budget", TopUpRequest{Add: 2.5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("top-up = %d (%s), want 200", resp.StatusCode, body)
	}
	var st SellerInfo
	getJSON(t, ts.URL+"/v2/markets/topup/sellers/S0", &st)
	if st.EpsilonBudget != 7.5 {
		t.Fatalf("budget after top-up = %g, want 7.5", st.EpsilonBudget)
	}

	// Invalid grants and budget-free markets are field-level 400s.
	resp, body = postJSON(t, ts.URL+"/v2/markets/topup/sellers/S0/budget", TopUpRequest{Add: -1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative top-up = %d, want 400", resp.StatusCode)
	}
	if e := decodeErrorEnvelope(t, body); e.Code != CodeInvalidField || e.Field != "add" {
		t.Errorf("negative top-up envelope = %+v", e)
	}
	registerSynthetic(t, ts.URL, 1)
	resp, body = postJSON(t, ts.URL+"/v2/markets/default/sellers/S0/budget", TopUpRequest{Add: 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("top-up on budget-free market = %d, want 400", resp.StatusCode)
	}
	if e := decodeErrorEnvelope(t, body); e.Code != CodeInvalidField || e.Field != "add" {
		t.Errorf("budget-free top-up envelope = %+v", e)
	}
}

func TestBudgetExhaustedTradeAnswers409(t *testing.T) {
	ts := newTestServer(t)
	// A budget far below any realistic per-round ε: the first trade's charge
	// is refused before a single record is perturbed.
	createBudgetMarket(t, ts.URL, "tiny", 1e-9, 2)
	resp, body := postJSON(t, ts.URL+"/v2/markets/tiny/trades", Demand{N: 60, V: 0.8})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("exhausted trade = %d (%s), want 409", resp.StatusCode, body)
	}
	if e := decodeErrorEnvelope(t, body); e.Code != CodeBudgetExhausted || e.Field != "sid" {
		t.Errorf("exhausted envelope = %+v, want budget_exhausted on sid", e)
	}
	// The refusal committed nothing.
	var trades []TradeResult
	getJSON(t, ts.URL+"/v2/markets/tiny/trades", &trades)
	if len(trades) != 0 {
		t.Errorf("refused round committed %d trades", len(trades))
	}
	// Quotes on the exhausted market keep answering.
	if resp, body := postJSON(t, ts.URL+"/v2/markets/tiny/quotes", QuoteBatchRequest{
		Demands: []Demand{{N: 50, V: 0.8}},
	}); resp.StatusCode != http.StatusOK {
		t.Errorf("quote on exhausted market = %d (%s)", resp.StatusCode, body)
	}
}

func TestCreateMarketBudgetValidation(t *testing.T) {
	ts := newTestServer(t)
	neg := -1.0
	resp, body := postJSON(t, ts.URL+"/v2/markets", MarketSpec{ID: "badb", EpsilonBudget: &neg})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative epsilon_budget = %d, want 400", resp.StatusCode)
	}
	if e := decodeErrorEnvelope(t, body); e.Code != CodeInvalidField || e.Field != "epsilon_budget" {
		t.Errorf("epsilon_budget envelope = %+v", e)
	}
	five := 5.0
	resp, body = postJSON(t, ts.URL+"/v2/markets", MarketSpec{ID: "badc", EpsilonBudget: &five, Composition: "fancy"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown composition = %d, want 400", resp.StatusCode)
	}
	if e := decodeErrorEnvelope(t, body); e.Code != CodeInvalidField || e.Field != "composition" {
		t.Errorf("composition envelope = %+v", e)
	}
	resp, body = postJSON(t, ts.URL+"/v2/markets", MarketSpec{ID: "adv", EpsilonBudget: &five, Composition: "advanced"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("advanced market = %d (%s), want 201", resp.StatusCode, body)
	}
	var info MarketInfo
	getJSON(t, ts.URL+"/v2/markets/adv", &info)
	if info.EpsilonBudget != 5 || info.Composition != "advanced" {
		t.Errorf("advanced market info = %+v", info)
	}
}

// TestTopUpKeepsBudgetFinite: a top-up that would make a seller's budget
// infinite answers a field-level 400 and changes nothing, so every response
// rendering the seller still has a body and the market still saves. Each
// grant was once checked alone: two grants of 1e308 made the budget +Inf,
// after which GET on the seller answered an empty 200 and SaveAll failed.
func TestTopUpKeepsBudgetFinite(t *testing.T) {
	srv := NewServer(Options{Seed: 1, Logf: func(string, ...any) {}, SnapshotDir: t.TempDir()})
	t.Cleanup(srv.Pool().Close)
	if code, body := serve(t, srv, http.MethodPost, "/v2/markets", `{"id":"b","epsilon_budget":5}`); code != http.StatusCreated {
		t.Fatalf("create market = %d (%s)", code, body)
	}
	if code, body := serve(t, srv, http.MethodPost, "/v2/markets/b/sellers", `{"id":"S0","lambda":0.4,"synthetic_rows":20}`); code != http.StatusCreated {
		t.Fatalf("register seller = %d (%s)", code, body)
	}
	const grant = `{"add":1e308}`
	if code, body := serve(t, srv, http.MethodPost, "/v2/markets/b/sellers/S0/budget", grant); code != http.StatusOK {
		t.Fatalf("first top-up = %d (%s), want 200", code, body)
	}
	code, body := serve(t, srv, http.MethodPost, "/v2/markets/b/sellers/S0/budget", grant)
	if code != http.StatusBadRequest {
		t.Fatalf("second top-up = %d (%s), want 400", code, body)
	}
	if e := decodeErrorEnvelope(t, body); e.Code != CodeInvalidField || e.Field != "add" {
		t.Errorf("second top-up envelope = %+v, want invalid_field on add", e)
	}
	code, body = serve(t, srv, http.MethodGet, "/v2/markets/b/sellers/S0", "")
	var st SellerInfo
	if code != http.StatusOK || json.Unmarshal(body, &st) != nil {
		t.Fatalf("GET seller = %d (%q), want 200 with a seller", code, body)
	}
	if st.EpsilonBudget != 5+1e308 {
		t.Errorf("budget after the refused grant = %g, want %g", st.EpsilonBudget, 5+1e308)
	}
	if err := srv.Pool().SaveAll(); err != nil {
		t.Fatalf("SaveAll: %v", err)
	}
}
