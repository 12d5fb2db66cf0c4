package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := NewServer(Options{Seed: 1, Logf: func(string, ...any) {}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

func registerSynthetic(t *testing.T, base string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		resp, body := postJSON(t, base+"/v1/sellers", SellerRegistration{
			ID:            fmt.Sprintf("S%d", i),
			Lambda:        0.2 + 0.1*float64(i),
			SyntheticRows: 120,
		})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("register seller %d: %d %s", i, resp.StatusCode, body)
		}
	}
}

func TestHealthEmptyMarket(t *testing.T) {
	ts := newTestServer(t)
	var health map[string]any
	resp := getJSON(t, ts.URL+"/v1/health", &health)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health status = %d", resp.StatusCode)
	}
	if health["status"] != "ok" || health["trading"] != false {
		t.Errorf("health = %v", health)
	}
}

func TestRegisterValidation(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		name string
		reg  SellerRegistration
		want int
	}{
		{"missing id", SellerRegistration{Lambda: 0.5, SyntheticRows: 10}, http.StatusBadRequest},
		{"bad lambda", SellerRegistration{ID: "x", Lambda: 0, SyntheticRows: 10}, http.StatusBadRequest},
		{"no data", SellerRegistration{ID: "x", Lambda: 0.5}, http.StatusBadRequest},
		{"both data kinds", SellerRegistration{ID: "x", Lambda: 0.5, SyntheticRows: 5, Rows: [][]float64{{1}}, Targets: []float64{1}}, http.StatusBadRequest},
		{"row/target mismatch", SellerRegistration{ID: "x", Lambda: 0.5, Rows: [][]float64{{1}}, Targets: []float64{1, 2}}, http.StatusBadRequest},
		{"ok inline", SellerRegistration{ID: "inline", Lambda: 0.5, Rows: [][]float64{{1, 2, 3, 4}, {3, 4, 5, 6}}, Targets: []float64{1, 2}}, http.StatusCreated},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/sellers", c.reg)
			if resp.StatusCode != c.want {
				t.Errorf("status = %d, want %d (%s)", resp.StatusCode, c.want, body)
			}
		})
	}
	// Duplicate ID.
	resp, _ := postJSON(t, ts.URL+"/v1/sellers", SellerRegistration{ID: "inline", Lambda: 0.5, SyntheticRows: 5})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate registration status = %d, want 409", resp.StatusCode)
	}
}

// TestRegisterRejectsRowsOfWrongWidth: inline rows must be exactly as wide
// as the market's 4-feature test set. Wider rows used to register and then
// panic the first trade's scoring; narrower ones traded but were scored
// against the test set's first columns. Both are a field-level 400 on rows,
// on either API version, for the first seller of a fresh market too.
func TestRegisterRejectsRowsOfWrongWidth(t *testing.T) {
	for _, base := range []string{"/v1/sellers", "/v2/markets/default/sellers"} {
		for _, width := range []int{6, 2} {
			ts := newTestServer(t)
			reg := SellerRegistration{ID: fmt.Sprintf("w%d", width), Lambda: 0.5}
			for i := 0; i < 5; i++ {
				row := make([]float64, width)
				for j := range row {
					row[j] = float64(10*i + j)
				}
				reg.Rows = append(reg.Rows, row)
				reg.Targets = append(reg.Targets, float64(i))
			}
			resp, body := postJSON(t, ts.URL+base, reg)
			var e struct {
				Error struct {
					Field string `json:"field"`
				} `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("%s, %d-feature rows: decoding %s: %v", base, width, body, err)
			}
			if resp.StatusCode != http.StatusBadRequest || e.Error.Field != "rows" {
				t.Errorf("%s, %d-feature rows: %d %s, want 400 on rows", base, width, resp.StatusCode, body)
			}
		}
	}
}

func TestQuoteWithoutSellers(t *testing.T) {
	ts := newTestServer(t)
	resp, _ := postJSON(t, ts.URL+"/v1/quote", Demand{N: 100, V: 0.8})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("quote with no sellers = %d, want 409", resp.StatusCode)
	}
}

func TestQuoteReturnsEquilibrium(t *testing.T) {
	ts := newTestServer(t)
	registerSynthetic(t, ts.URL, 4)
	resp, body := postJSON(t, ts.URL+"/v1/quote", Demand{N: 200, V: 0.8})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quote status = %d (%s)", resp.StatusCode, body)
	}
	var q Quote
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatalf("decoding quote: %v", err)
	}
	if !(q.ProductPrice > 0) || !(q.DataPrice > 0) {
		t.Errorf("non-positive prices: %+v", q)
	}
	if len(q.Fidelities) != 4 || len(q.Allocations) != 4 {
		t.Errorf("wrong vector sizes: %+v", q)
	}
	var total float64
	for _, chi := range q.Allocations {
		total += chi
	}
	if total < 199.9 || total > 200.1 {
		t.Errorf("Σχ = %v, want 200", total)
	}
}

func TestTradeLifecycle(t *testing.T) {
	ts := newTestServer(t)
	registerSynthetic(t, ts.URL, 3)

	// Execute two trades.
	for round := 1; round <= 2; round++ {
		resp, body := postJSON(t, ts.URL+"/v1/trades", Demand{N: 90, V: 0.8})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("trade status = %d (%s)", resp.StatusCode, body)
		}
		var tr TradeResult
		if err := json.Unmarshal(body, &tr); err != nil {
			t.Fatalf("decoding trade: %v", err)
		}
		if tr.Round != round {
			t.Errorf("round = %d, want %d", tr.Round, round)
		}
		sum := 0
		for _, p := range tr.Pieces {
			sum += p
		}
		if sum != 90 {
			t.Errorf("Σ pieces = %d, want 90", sum)
		}
		if tr.Payment <= 0 {
			t.Errorf("payment = %v", tr.Payment)
		}
	}

	// Ledger reflects both trades.
	var trades []TradeResult
	getJSON(t, ts.URL+"/v1/trades", &trades)
	if len(trades) != 2 {
		t.Fatalf("ledger length = %d", len(trades))
	}

	// Registration stays open after trading starts: the late seller joins
	// mid-life at the mean of the current weights.
	resp, _ := postJSON(t, ts.URL+"/v1/sellers", SellerRegistration{ID: "late", Lambda: 0.5, SyntheticRows: 10})
	if resp.StatusCode != http.StatusCreated {
		t.Errorf("late registration = %d, want 201", resp.StatusCode)
	}

	// Weights endpoint returns one weight per seller (including the
	// mid-life joiner).
	var weights []float64
	getJSON(t, ts.URL+"/v1/weights", &weights)
	if len(weights) != 4 {
		t.Fatalf("weights length = %d", len(weights))
	}

	// Health reports trading state.
	var health map[string]any
	getJSON(t, ts.URL+"/v1/health", &health)
	if health["trading"] != true || health["trades"].(float64) != 2 {
		t.Errorf("health = %v", health)
	}
}

func TestSellerListShowsWeights(t *testing.T) {
	ts := newTestServer(t)
	registerSynthetic(t, ts.URL, 2)
	var infos []SellerInfo
	getJSON(t, ts.URL+"/v1/sellers", &infos)
	if len(infos) != 2 {
		t.Fatalf("sellers = %d", len(infos))
	}
	for _, info := range infos {
		if info.Weight != 0.5 {
			t.Errorf("pre-trade weight = %v, want uniform 0.5", info.Weight)
		}
		if info.Rows != 120 {
			t.Errorf("rows = %d", info.Rows)
		}
	}
}

func TestMalformedJSON(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/quote", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status = %d, want 400", resp.StatusCode)
	}
	// Unknown fields are rejected (DisallowUnknownFields).
	resp, _ = postJSON(t, ts.URL+"/v1/quote", map[string]any{"n": 10, "bogus": true})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown-field status = %d, want 400", resp.StatusCode)
	}
}

func TestMethodRouting(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/trades")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /v1/trades = %d", resp.StatusCode)
	}
	// DELETE on a POST-only route.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/trades", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed && resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE /v1/trades = %d, want 405/404", resp.StatusCode)
	}
}

func TestTradeWithProductSelection(t *testing.T) {
	ts := newTestServer(t)
	registerSynthetic(t, ts.URL, 3)
	for _, prod := range []string{"", "ols", "ridge", "logistic", "mean", "histogram"} {
		resp, body := postJSON(t, ts.URL+"/v1/trades", Demand{N: 60, V: 0.8, Product: prod})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("product %q: status %d (%s)", prod, resp.StatusCode, body)
		}
		var tr TradeResult
		if err := json.Unmarshal(body, &tr); err != nil {
			t.Fatalf("decoding: %v", err)
		}
		if tr.Product == "" {
			t.Errorf("product %q: transaction did not record the builder", prod)
		}
	}
	// Unknown product is rejected.
	resp, _ := postJSON(t, ts.URL+"/v1/trades", Demand{N: 60, V: 0.8, Product: "neural-net"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown product status = %d, want 400", resp.StatusCode)
	}
}
