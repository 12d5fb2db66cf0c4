package httpapi

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func doDelete(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp, raw
}

// TestRemoveSellerEndpoint exercises DELETE /v2/markets/{id}/sellers/{sid}
// through both roster phases: pre-trade unregistration and a mid-life leave
// after trading has started.
func TestRemoveSellerEndpoint(t *testing.T) {
	ts := newTestServer(t)
	registerSynthetic(t, ts.URL, 3)

	// Pre-trade: releasing a registered seller shrinks the listing.
	resp, body := doDelete(t, ts.URL+"/v2/markets/default/sellers/S1")
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("pre-trade remove = %d (%s), want 204", resp.StatusCode, body)
	}
	var infos []SellerInfo
	getJSON(t, ts.URL+"/v1/sellers", &infos)
	if len(infos) != 2 || infos[0].ID != "S0" || infos[1].ID != "S2" {
		t.Fatalf("roster after remove = %+v", infos)
	}

	// Unknown seller: 404 seller_not_found, the same envelope every seller
	// sub-resource answers.
	resp, body = doDelete(t, ts.URL+"/v2/markets/default/sellers/ghost")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown seller remove = %d, want 404", resp.StatusCode)
	}
	if e := decodeErrorEnvelope(t, body); e.Code != CodeSellerNotFound || e.Field != "sid" {
		t.Errorf("unknown seller envelope = %+v", e)
	}

	// Mid-life: trade, then release one of the survivors.
	if resp, body := postJSON(t, ts.URL+"/v1/trades", Demand{N: 60, V: 0.8}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("trade: %d (%s)", resp.StatusCode, body)
	}
	resp, body = doDelete(t, ts.URL+"/v2/markets/default/sellers/S0")
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("mid-life remove = %d (%s), want 204", resp.StatusCode, body)
	}
	var weights []float64
	getJSON(t, ts.URL+"/v1/weights", &weights)
	if len(weights) != 1 {
		t.Fatalf("post-leave weights = %v, want one entry", weights)
	}
	// The last seller is load-bearing: removing it mid-life is refused.
	resp, body = doDelete(t, ts.URL+"/v2/markets/default/sellers/S2")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("last-seller remove = %d (%s), want 400", resp.StatusCode, body)
	}
	// Quotes still solve over the shrunken roster.
	resp, body = postJSON(t, ts.URL+"/v1/quote", Demand{N: 50, V: 0.8})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quote after churn = %d (%s)", resp.StatusCode, body)
	}
}

// TestStreamDeliversEvents subscribes to the SSE stream via the typed
// client and walks a churn sequence: the initial state snapshot, a join, a
// committed trade's weight event, and a leave.
func TestStreamDeliversEvents(t *testing.T) {
	srv := NewServer(Options{Seed: 3, Logf: func(string, ...any) {}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	registerSynthetic(t, ts.URL, 2)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := make(chan StreamEvent, 32)
	done := make(chan error, 1)
	c := NewClient(ts.URL, nil)
	go func() {
		done <- c.Watch(ctx, "default", func(ev StreamEvent) error {
			events <- ev
			return nil
		})
	}()
	next := func(want string) StreamEvent {
		t.Helper()
		select {
		case ev := <-events:
			if ev.Type != want {
				t.Fatalf("event type = %q (%+v), want %q", ev.Type, ev, want)
			}
			return ev
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %q event", want)
			return StreamEvent{}
		}
	}

	state := next("state")
	if len(state.Sellers) != 2 || state.Market != "default" {
		t.Fatalf("state snapshot = %+v", state)
	}

	if resp, body := postJSON(t, ts.URL+"/v1/sellers", SellerRegistration{ID: "J1", Lambda: 0.4, SyntheticRows: 80}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("join: %d (%s)", resp.StatusCode, body)
	}
	join := next("roster")
	if join.Action != "join" || join.Seller != "J1" || len(join.Sellers) != 3 {
		t.Fatalf("join event = %+v", join)
	}
	if !(join.PM > 0 && join.PD > 0) {
		t.Errorf("join event carries no prototype prices: %+v", join)
	}

	if resp, body := postJSON(t, ts.URL+"/v1/trades", Demand{N: 60, V: 0.8}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("trade: %d (%s)", resp.StatusCode, body)
	}
	wev := next("weights")
	if wev.Round != 1 || len(wev.Weights) != 3 || !(wev.PM > 0) {
		t.Fatalf("weights event = %+v", wev)
	}

	resp, body := doDelete(t, ts.URL+"/v2/markets/default/sellers/S0")
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("leave: %d (%s)", resp.StatusCode, body)
	}
	leave := next("roster")
	if leave.Action != "leave" || leave.Seller != "S0" || len(leave.Sellers) != 2 {
		t.Fatalf("leave event = %+v", leave)
	}
	if leave.Epoch <= join.Epoch {
		t.Errorf("leave epoch %d did not advance past join epoch %d", leave.Epoch, join.Epoch)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil && err != context.Canceled {
			t.Errorf("Watch returned %v, want nil or context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Watch did not return after cancel")
	}
}

// TestStreamUnknownMarket verifies the stream endpoint answers the standard
// envelope, not an event stream, for missing markets.
func TestStreamUnknownMarket(t *testing.T) {
	ts := newTestServer(t)
	c := NewClient(ts.URL, nil)
	err := c.Watch(context.Background(), "nope", func(StreamEvent) error { return nil })
	se, ok := err.(*StatusError)
	if !ok || se.Code != http.StatusNotFound || se.APICode != CodeMarketNotFound {
		t.Fatalf("Watch(unknown) = %v, want 404 market_not_found StatusError", err)
	}
}
