package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// decodeErrorEnvelope asserts the body is the unified error envelope and
// returns it.
func decodeErrorEnvelope(t *testing.T, body []byte) *Error {
	t.Helper()
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
		t.Fatalf("body is not the error envelope: %s", body)
	}
	return env.Error
}

func deleteURL(t *testing.T, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE %s: %v", url, err)
	}
	resp.Body.Close()
	return resp
}

// TestV2MarketLifecycle drives the full resource flow: create → register →
// batch quote → trade → list → delete.
func TestV2MarketLifecycle(t *testing.T) {
	ts := newTestServer(t)

	resp, body := postJSON(t, ts.URL+"/v2/markets", MarketSpec{ID: "alpha"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create market: %d %s", resp.StatusCode, body)
	}
	var info MarketInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.ID != "alpha" || info.Solver != "analytic" || info.Trading {
		t.Fatalf("created market info = %+v", info)
	}

	// Duplicate ID conflicts with a stable code.
	resp, body = postJSON(t, ts.URL+"/v2/markets", MarketSpec{ID: "alpha"})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create: %d %s", resp.StatusCode, body)
	}
	if e := decodeErrorEnvelope(t, body); e.Code != CodeMarketExists {
		t.Fatalf("duplicate create code = %q", e.Code)
	}

	// The listing covers the default market plus ours, sorted.
	var markets []MarketInfo
	lresp := getJSON(t, ts.URL+"/v2/markets", &markets)
	if len(markets) != 2 || markets[0].ID != "alpha" || markets[1].ID != "default" {
		t.Fatalf("market listing = %+v", markets)
	}
	if got := lresp.Header.Get("X-Total-Count"); got != "2" {
		t.Fatalf("X-Total-Count = %q", got)
	}

	// Register sellers and run a batch of quotes.
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v2/markets/alpha/sellers", SellerRegistration{
			ID: fmt.Sprintf("S%d", i), Lambda: 0.3 + 0.1*float64(i), SyntheticRows: 80,
		})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("register: %d %s", resp.StatusCode, body)
		}
	}
	resp, body = postJSON(t, ts.URL+"/v2/markets/alpha/quotes", QuoteBatchRequest{
		Demands: []Demand{{N: 100, V: 0.8}, {N: 200, V: 0.85, Solver: "meanfield"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch quote: %d %s", resp.StatusCode, body)
	}
	var batch QuoteBatchResult
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Quotes) != 2 || batch.Quotes[0].Solver != "analytic" || batch.Quotes[1].Solver != "meanfield" {
		t.Fatalf("batch quotes = %+v", batch.Quotes)
	}
	if batch.Quotes[1].Approx == nil {
		t.Fatal("mean-field quote lost its approximation guarantee")
	}

	// Trade, then confirm it shows in the market resource and ledger.
	resp, body = postJSON(t, ts.URL+"/v2/markets/alpha/trades", Demand{N: 90, V: 0.8})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("trade: %d %s", resp.StatusCode, body)
	}
	getJSON(t, ts.URL+"/v2/markets/alpha", &info)
	if info.Trades != 1 || !info.Trading || info.Sellers != 3 {
		t.Fatalf("market info after trade = %+v", info)
	}
	var weights []float64
	getJSON(t, ts.URL+"/v2/markets/alpha/weights", &weights)
	if len(weights) != 3 {
		t.Fatalf("weights = %v", weights)
	}

	// Delete, confirm 204 then 404.
	if resp := deleteURL(t, ts.URL+"/v2/markets/alpha"); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	resp = getJSON(t, ts.URL+"/v2/markets/alpha", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: %d", resp.StatusCode)
	}
}

// TestV2DefaultMarketProtected: the /v1 alias target cannot be deleted.
func TestV2DefaultMarketProtected(t *testing.T) {
	ts := newTestServer(t)
	resp := deleteURL(t, ts.URL+"/v2/markets/default")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("delete default: %d, want 409", resp.StatusCode)
	}
}

// TestV1AliasEquivalence: the flat v1 routes and the /v2 default-market
// routes are the same handlers over the same market — the response bodies
// must be byte-identical.
func TestV1AliasEquivalence(t *testing.T) {
	ts := newTestServer(t)
	registerSynthetic(t, ts.URL, 3)
	resp, body := postJSON(t, ts.URL+"/v1/trades", Demand{N: 90, V: 0.8})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("trade: %d %s", resp.StatusCode, body)
	}

	read := func(url string) []byte {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", url, resp.StatusCode)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	for _, pair := range [][2]string{
		{"/v1/sellers", "/v2/markets/default/sellers"},
		{"/v1/trades", "/v2/markets/default/trades"},
		{"/v1/weights", "/v2/markets/default/weights"},
	} {
		v1, v2 := read(ts.URL+pair[0]), read(ts.URL+pair[1])
		if !bytes.Equal(v1, v2) {
			t.Errorf("%s and %s differ:\n  v1: %s\n  v2: %s", pair[0], pair[1], v1, v2)
		}
	}

	// A v1 quote and a single-demand v2 batch agree on the equilibrium.
	_, qbody := postJSON(t, ts.URL+"/v1/quote", Demand{N: 150, V: 0.8})
	var q1 Quote
	if err := json.Unmarshal(qbody, &q1); err != nil {
		t.Fatal(err)
	}
	_, bbody := postJSON(t, ts.URL+"/v2/markets/default/quotes", QuoteBatchRequest{Demands: []Demand{{N: 150, V: 0.8}}})
	var batch QuoteBatchResult
	if err := json.Unmarshal(bbody, &batch); err != nil {
		t.Fatalf("batch decode: %v (%s)", err, bbody)
	}
	b1, _ := json.Marshal(q1)
	b2, _ := json.Marshal(batch.Quotes[0])
	if !bytes.Equal(b1, b2) {
		t.Errorf("v1 quote and v2 batch disagree:\n  v1: %s\n  v2: %s", b1, b2)
	}
}

// rawBody marks a request body that must be sent verbatim (not marshaled).
type rawBody string

// TestErrorEnvelope pins the unified error contract on both API versions:
// every failure mode answers with {"error": {code, field, message}} and its
// stable code.
func TestErrorEnvelope(t *testing.T) {
	ts := newTestServer(t)
	registerSynthetic(t, ts.URL, 2)

	cases := []struct {
		name       string
		method     string
		path       string
		body       any
		wantStatus int
		wantCode   string
		wantField  string
	}{
		{"v1 bad demand field", http.MethodPost, "/v1/quote", Demand{N: -5, V: 0.8}, 400, CodeInvalidField, "n"},
		{"v1 malformed body", http.MethodPost, "/v1/quote", rawBody(`{"n":`), 400, CodeInvalidBody, ""},
		{"v1 unknown product", http.MethodPost, "/v1/trades", Demand{N: 90, V: 0.8, Product: "nope"}, 400, CodeInvalidField, "product"},
		{"v1 unknown solver", http.MethodPost, "/v1/quote", Demand{N: 90, V: 0.8, Solver: "nope"}, 400, CodeInvalidField, "solver"},
		{"v2 market missing", http.MethodGet, "/v2/markets/ghost", nil, 404, CodeMarketNotFound, ""},
		{"v2 bad market id", http.MethodPost, "/v2/markets", MarketSpec{ID: "bad id"}, 400, CodeInvalidField, "id"},
		{"v2 empty batch", http.MethodPost, "/v2/markets/default/quotes", QuoteBatchRequest{}, 400, CodeInvalidField, "demands"},
		{"v2 batch bad demand", http.MethodPost, "/v2/markets/default/quotes",
			QuoteBatchRequest{Demands: []Demand{{N: 100, V: 0.8}, {N: -1, V: 0.8}}}, 400, CodeInvalidField, "demands[1].n"},
		{"v2 batch bad solver", http.MethodPost, "/v2/markets/default/quotes",
			QuoteBatchRequest{Demands: []Demand{{N: 100, V: 0.8, Solver: "nope"}}}, 400, CodeInvalidField, "demands[0].solver"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			var body []byte
			if tc.method == http.MethodGet {
				r, err := http.Get(ts.URL + tc.path)
				if err != nil {
					t.Fatal(err)
				}
				body, _ = io.ReadAll(r.Body)
				r.Body.Close()
				resp = r
			} else if raw, ok := tc.body.(rawBody); ok {
				r, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(string(raw)))
				if err != nil {
					t.Fatal(err)
				}
				body, _ = io.ReadAll(r.Body)
				r.Body.Close()
				resp = r
			} else {
				resp, body = postJSON(t, ts.URL+tc.path, tc.body)
			}
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.wantStatus, body)
			}
			e := decodeErrorEnvelope(t, body)
			if e.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", e.Code, tc.wantCode)
			}
			if e.Field != tc.wantField {
				t.Errorf("field = %q, want %q", e.Field, tc.wantField)
			}
			if e.Message == "" {
				t.Error("empty message")
			}
		})
	}

	// Quote before any seller registers: 409 no_sellers on a fresh market.
	_, body := postJSON(t, ts.URL+"/v2/markets", MarketSpec{ID: "empty"})
	if e := func() *Error {
		resp, b := postJSON(t, ts.URL+"/v2/markets/empty/quotes", QuoteBatchRequest{Demands: []Demand{{N: 100, V: 0.8}}})
		_ = resp
		return decodeErrorEnvelope(t, b)
	}(); e.Code != CodeNoSellers {
		t.Fatalf("quote on empty market: %+v (create said %s)", e, body)
	}
}

// TestPagination covers limit/offset windows, the X-Total-Count header and
// field-level 400s on bad values, for sellers and trades.
func TestPagination(t *testing.T) {
	ts := newTestServer(t)
	registerSynthetic(t, ts.URL, 5)

	get := func(url string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp, raw
	}

	for _, base := range []string{"/v1/sellers", "/v2/markets/default/sellers"} {
		resp, body := get(ts.URL + base + "?offset=1&limit=2")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", base, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Total-Count"); got != "5" {
			t.Errorf("%s: X-Total-Count = %q, want 5", base, got)
		}
		var sellers []SellerInfo
		if err := json.Unmarshal(body, &sellers); err != nil {
			t.Fatal(err)
		}
		if len(sellers) != 2 || sellers[0].ID != "S1" || sellers[1].ID != "S2" {
			t.Errorf("%s: page = %+v", base, sellers)
		}

		// Past-the-end offset: empty page, total still reported.
		resp, body = get(ts.URL + base + "?offset=99")
		var empty []SellerInfo
		json.Unmarshal(body, &empty)
		if len(empty) != 0 || resp.Header.Get("X-Total-Count") != "5" {
			t.Errorf("%s: past-the-end page = %s (total %q)", base, body, resp.Header.Get("X-Total-Count"))
		}

		// Bad values are field-level 400s and never stamp the header.
		for _, q := range []string{"?limit=-1", "?offset=-2", "?limit=abc", "?offset=1.5"} {
			resp, body := get(ts.URL + base + q)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s%s: %d, want 400", base, q, resp.StatusCode)
			}
			e := decodeErrorEnvelope(t, body)
			if e.Code != CodeInvalidField || (e.Field != "limit" && e.Field != "offset") {
				t.Errorf("%s%s: envelope = %+v", base, q, e)
			}
			if resp.Header.Get("X-Total-Count") != "" {
				t.Errorf("%s%s: X-Total-Count stamped on error", base, q)
			}
		}
	}

	// limit=0 is a valid empty page.
	resp, body := get(ts.URL + "/v1/trades?limit=0")
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "[]" {
		t.Errorf("limit=0 trades = %d %s", resp.StatusCode, body)
	}
}

// TestPaginationOverflowSafe pins the paginate arithmetic fix: an offset
// combined with a limit near MaxInt64 used to compute lo+limit, wrap
// negative, and panic the slice expression — killing the connection instead
// of returning the page. Both paginated collections (sellers and trades) are
// exercised, each with an offset so lo+limit actually overflows.
func TestPaginationOverflowSafe(t *testing.T) {
	ts := newTestServer(t)
	registerSynthetic(t, ts.URL, 5)
	if resp, body := postJSON(t, ts.URL+"/v2/markets/default/trades", Demand{N: 90, V: 0.8}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("seeding trade: %d %s", resp.StatusCode, body)
	}

	const hugeLimit = "9223372036854775807" // MaxInt64
	cases := []struct {
		path      string
		wantTotal string
		wantLen   int
	}{
		{"/v2/markets/default/sellers?offset=1&limit=" + hugeLimit, "5", 4},
		{"/v2/markets/default/trades?offset=1&limit=" + hugeLimit, "1", 0},
		{"/v1/sellers?offset=5&limit=" + hugeLimit, "5", 0},
	}
	for _, c := range cases {
		resp, err := http.Get(ts.URL + c.path)
		if err != nil {
			// Pre-fix the handler panicked and the server reset the
			// connection, which surfaces here as a transport error.
			t.Fatalf("GET %s: %v", c.path, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", c.path, resp.StatusCode, raw)
		}
		if got := resp.Header.Get("X-Total-Count"); got != c.wantTotal {
			t.Errorf("%s: X-Total-Count = %q, want %q", c.path, got, c.wantTotal)
		}
		var page []json.RawMessage
		if err := json.Unmarshal(raw, &page); err != nil {
			t.Fatalf("%s: body not a JSON array: %s", c.path, raw)
		}
		if len(page) != c.wantLen {
			t.Errorf("%s: page length = %d, want %d", c.path, len(page), c.wantLen)
		}
	}

	// Explicit limit=0 after an offset is still a valid empty page with the
	// total intact, on trades as well as sellers.
	for _, path := range []string{"/v2/markets/default/trades?offset=1&limit=0", "/v2/markets/default/sellers?limit=0"} {
		resp, raw := func() (*http.Response, []byte) {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			return resp, raw
		}()
		if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(raw)) != "[]" {
			t.Errorf("%s = %d %s, want 200 []", path, resp.StatusCode, raw)
		}
		if resp.Header.Get("X-Total-Count") == "" {
			t.Errorf("%s: X-Total-Count missing", path)
		}
	}
}

// TestBatchQuoteDeterministicAcrossWorkers runs the same batch through
// servers configured with different worker budgets; the HTTP response body
// must be byte-identical.
func TestBatchQuoteDeterministicAcrossWorkers(t *testing.T) {
	demands := make([]Demand, 6)
	for i := range demands {
		demands[i] = Demand{N: 100 + 50*float64(i), V: 0.8}
		if i%2 == 1 {
			demands[i].Solver = "meanfield"
		}
	}
	var want []byte
	for _, workers := range []int{1, 4, 8} {
		srv := NewServer(Options{Seed: 1, Workers: workers, Logf: func(string, ...any) {}})
		ts := httptest.NewServer(srv.Handler())
		registerSynthetic(t, ts.URL, 4)
		resp, body := postJSON(t, ts.URL+"/v2/markets/default/quotes", QuoteBatchRequest{Demands: demands})
		ts.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workers=%d: %d %s", workers, resp.StatusCode, body)
		}
		if want == nil {
			want = body
		} else if !bytes.Equal(body, want) {
			t.Fatalf("workers=%d: batch response differs from workers=1", workers)
		}
	}
}

// TestClientV2 exercises the Go client's market lifecycle and batch-quote
// methods, and the enriched StatusError.
func TestClientV2(t *testing.T) {
	ts := newTestServer(t)
	c := NewClient(ts.URL, nil)
	ctx := context.Background()

	info, err := c.CreateMarket(ctx, MarketSpec{ID: "alpha", Solver: "meanfield"})
	if err != nil {
		t.Fatalf("CreateMarket: %v", err)
	}
	if info.ID != "alpha" || info.Solver != "meanfield" {
		t.Fatalf("CreateMarket info = %+v", info)
	}

	// Duplicate create: the StatusError surfaces status, code and message.
	_, err = c.CreateMarket(ctx, MarketSpec{ID: "alpha"})
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("duplicate CreateMarket error = %T %v", err, err)
	}
	if se.Code != http.StatusConflict || se.APICode != CodeMarketExists || se.Message == "" {
		t.Fatalf("StatusError = %+v", se)
	}

	// Field-level validation error carries the field through.
	_, err = c.CreateMarket(ctx, MarketSpec{ID: "bad id"})
	if !errors.As(err, &se) || se.APICode != CodeInvalidField || se.Field != "id" {
		t.Fatalf("bad-id StatusError = %+v", err)
	}

	for i := 0; i < 3; i++ {
		if _, err := c.RegisterSellerIn(ctx, "alpha", SellerRegistration{
			ID: fmt.Sprintf("S%d", i), Lambda: 0.4, SyntheticRows: 60,
		}); err != nil {
			t.Fatalf("RegisterSellerIn: %v", err)
		}
	}
	sellers, err := c.SellersIn(ctx, "alpha", Page{Offset: 1})
	if err != nil || len(sellers) != 2 {
		t.Fatalf("SellersIn page = %+v, %v", sellers, err)
	}

	quotes, err := c.QuoteBatch(ctx, "alpha", []Demand{{N: 100, V: 0.8}, {N: 200, V: 0.85}})
	if err != nil || len(quotes) != 2 {
		t.Fatalf("QuoteBatch = %d quotes, %v", len(quotes), err)
	}
	if quotes[0].Solver != "meanfield" {
		t.Fatalf("market default solver not honored: %+v", quotes[0])
	}

	tr, err := c.TradeIn(ctx, "alpha", Demand{N: 90, V: 0.8})
	if err != nil || tr.Round != 1 {
		t.Fatalf("TradeIn = %+v, %v", tr, err)
	}
	trades, err := c.TradesIn(ctx, "alpha", Page{})
	if err != nil || len(trades) != 1 {
		t.Fatalf("TradesIn = %d, %v", len(trades), err)
	}
	w, err := c.WeightsIn(ctx, "alpha")
	if err != nil || len(w) != 3 {
		t.Fatalf("WeightsIn = %v, %v", w, err)
	}

	markets, err := c.Markets(ctx)
	if err != nil || len(markets) != 2 {
		t.Fatalf("Markets = %+v, %v", markets, err)
	}
	if err := c.DeleteMarket(ctx, "alpha"); err != nil {
		t.Fatalf("DeleteMarket: %v", err)
	}
	if _, err := c.Market(ctx, "alpha"); !errors.As(err, &se) || se.APICode != CodeMarketNotFound {
		t.Fatalf("Market after delete = %v", err)
	}
}

// TestMarketDurabilityField covers the /v2 "durability" spec field: it is
// validated on create, echoed in the market resource, and defaults to the
// server-wide mode when omitted.
func TestMarketDurabilityField(t *testing.T) {
	srv := NewServer(Options{
		Seed:        1,
		Logf:        func(string, ...any) {},
		SnapshotDir: t.TempDir(),
		Durability:  "group",
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, nil)
	ctx := context.Background()

	info, err := c.CreateMarket(ctx, MarketSpec{ID: "synced", Durability: "sync"})
	if err != nil {
		t.Fatalf("CreateMarket with durability: %v", err)
	}
	if info.Durability != "sync" {
		t.Fatalf("Durability = %q, want %q", info.Durability, "sync")
	}

	// Omitted durability inherits the pool default.
	info, err = c.CreateMarket(ctx, MarketSpec{ID: "defaulted"})
	if err != nil {
		t.Fatalf("CreateMarket without durability: %v", err)
	}
	if info.Durability != "group" {
		t.Fatalf("default Durability = %q, want %q", info.Durability, "group")
	}

	// GET echoes the mode back too.
	got, err := c.Market(ctx, "synced")
	if err != nil || got.Durability != "sync" {
		t.Fatalf("Market(synced) = %+v, %v", got, err)
	}

	// An unknown mode — the retired "snapshot" mode included — fails field
	// validation with the unified envelope.
	for _, bad := range []string{"fsync-maybe", "snapshot"} {
		var se *StatusError
		_, err = c.CreateMarket(ctx, MarketSpec{ID: "bad", Durability: bad})
		if !errors.As(err, &se) || se.Code != http.StatusBadRequest ||
			se.APICode != CodeInvalidField || se.Field != "durability" {
			t.Fatalf("durability %q error = %+v", bad, err)
		}
	}
}
