package httpapi

import (
	"fmt"
	"net/http"
	"testing"
)

// TestTradeSizeBounds: a trade whose n rounds to no data piece, or to more
// than market.MaxPieces, answers a 400 invalid_demand envelope naming n on
// both API versions, and the market keeps trading afterwards. The oversized
// demand is far past the cap, so a server that sized the sale first would
// fail its allocation at once.
func TestTradeSizeBounds(t *testing.T) {
	ts := newTestServer(t)
	registerSynthetic(t, ts.URL, 3)
	for api, path := range map[string]string{"v1": "/v1/trades", "v2": "/v2/markets/default/trades"} {
		for _, n := range []float64{0.1, 0.49, 1e12} {
			t.Run(fmt.Sprintf("%s/n=%g", api, n), func(t *testing.T) {
				resp, body := postJSON(t, ts.URL+path, Demand{N: n, V: 0.8})
				if resp.StatusCode != http.StatusBadRequest {
					t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, body)
				}
				e := decodeErrorEnvelope(t, body)
				if e.Code != CodeInvalidDemand || e.Field != "n" {
					t.Errorf("code %q field %q, want %q naming n", e.Code, e.Field, CodeInvalidDemand)
				}
			})
		}
	}
	if resp, body := postJSON(t, ts.URL+"/v1/trades", Demand{N: 0.5, V: 0.8}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("one-piece trade after the refusals: %d %s", resp.StatusCode, body)
	}
}

// TestNonFiniteQuoteIsRefused: a demand whose equilibrium overflows (a tiny
// n drives the broker's profit to -Inf) answers a 400 invalid_demand
// envelope, single and batched, instead of a 200 whose body could not be
// encoded.
func TestNonFiniteQuoteIsRefused(t *testing.T) {
	ts := newTestServer(t)
	registerSynthetic(t, ts.URL, 3)
	resp, body := postJSON(t, ts.URL+"/v1/quote", Demand{N: 1e-300, V: 0.8})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("quote n=1e-300: status %d, want 400 (%s)", resp.StatusCode, body)
	}
	if e := decodeErrorEnvelope(t, body); e.Code != CodeInvalidDemand {
		t.Errorf("quote n=1e-300: code %q, want %q", e.Code, CodeInvalidDemand)
	}
	resp, body = postJSON(t, ts.URL+"/v2/markets/default/quotes",
		QuoteBatchRequest{Demands: []Demand{{N: 100, V: 0.8}, {N: 1e-300, V: 0.8}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("batch with n=1e-300: status %d, want 400 (%s)", resp.StatusCode, body)
	}
	if e := decodeErrorEnvelope(t, body); e.Code != CodeInvalidDemand || e.Field != "demands[1]" {
		t.Errorf("batch with n=1e-300: code %q field %q, want %q on demands[1]", e.Code, e.Field, CodeInvalidDemand)
	}
}
