package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"share/internal/obs"
)

// Client is a typed Go client for a share-server instance. The flat
// methods (Health, Quote, Trade, ...) address the /v1 aliases — the
// server's default market; the *In variants and the market-lifecycle
// methods address any market through /v2. The zero value is not usable;
// construct with NewClient.
type Client struct {
	base string
	http *http.Client
}

// NewClient builds a client for the server at baseURL (e.g.
// "http://localhost:8080"). Pass nil to use a default http.Client with a
// five-minute timeout (Shapley-heavy trades can be slow).
func NewClient(baseURL string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{Timeout: 5 * time.Minute}
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), http: hc}
}

// Page selects a window of a listing; the zero value means "everything".
type Page struct {
	// Offset skips the first Offset items.
	Offset int
	// Limit caps the returned items; 0 means no explicit limit. To request
	// an empty page (just the X-Total-Count header), use a negative Limit.
	Limit int
}

// query renders the page as URL query parameters ("" when zero).
func (p Page) query() string {
	q := url.Values{}
	if p.Offset > 0 {
		q.Set("offset", strconv.Itoa(p.Offset))
	}
	if p.Limit > 0 {
		q.Set("limit", strconv.Itoa(p.Limit))
	} else if p.Limit < 0 {
		q.Set("limit", "0")
	}
	if len(q) == 0 {
		return ""
	}
	return "?" + q.Encode()
}

// --- v1 aliases (default market) ---

// Health reports the server's liveness and the default market's state.
func (c *Client) Health(ctx context.Context) (map[string]any, error) {
	var out map[string]any
	return out, c.do(ctx, http.MethodGet, "/v1/health", nil, &out)
}

// RegisterSeller registers a seller in the default market. Registration is
// open over the market's whole life: a seller joining after trading starts
// enters at the mean of the current weights.
func (c *Client) RegisterSeller(ctx context.Context, reg SellerRegistration) (SellerInfo, error) {
	var out SellerInfo
	return out, c.do(ctx, http.MethodPost, "/v1/sellers", reg, &out)
}

// Sellers lists the default market's sellers with their current weights.
func (c *Client) Sellers(ctx context.Context) ([]SellerInfo, error) {
	var out []SellerInfo
	return out, c.do(ctx, http.MethodGet, "/v1/sellers", nil, &out)
}

// Quote solves the game for a demand in the default market without
// executing a trade.
func (c *Client) Quote(ctx context.Context, d Demand) (Quote, error) {
	var out Quote
	return out, c.do(ctx, http.MethodPost, "/v1/quote", d, &out)
}

// Trade executes one full trading round in the default market.
func (c *Client) Trade(ctx context.Context, d Demand) (TradeResult, error) {
	var out TradeResult
	return out, c.do(ctx, http.MethodPost, "/v1/trades", d, &out)
}

// Trades returns the default market's executed-transaction ledger.
func (c *Client) Trades(ctx context.Context) ([]TradeResult, error) {
	var out []TradeResult
	return out, c.do(ctx, http.MethodGet, "/v1/trades", nil, &out)
}

// Weights returns the default market's broker dataset weights.
func (c *Client) Weights(ctx context.Context) ([]float64, error) {
	var out []float64
	return out, c.do(ctx, http.MethodGet, "/v1/weights", nil, &out)
}

// Metrics returns the server's observability snapshot: per-endpoint
// request counts, error counts, in-flight gauges and latency quantiles.
func (c *Client) Metrics(ctx context.Context) (obs.Snapshot, error) {
	var out obs.Snapshot
	return out, c.do(ctx, http.MethodGet, "/v1/metrics", nil, &out)
}

// --- v2 market lifecycle ---

// CreateMarket creates a named market on the server.
func (c *Client) CreateMarket(ctx context.Context, spec MarketSpec) (MarketInfo, error) {
	var out MarketInfo
	return out, c.do(ctx, http.MethodPost, "/v2/markets", spec, &out)
}

// Markets lists every market hosted by the server.
func (c *Client) Markets(ctx context.Context) ([]MarketInfo, error) {
	var out []MarketInfo
	return out, c.do(ctx, http.MethodGet, "/v2/markets", nil, &out)
}

// DeleteMarket drains and deletes a market. The server's default market
// cannot be deleted (it backs the /v1 aliases).
func (c *Client) DeleteMarket(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, c.marketPath(id, ""), nil, nil)
}

// --- v2 per-market operations ---

// RegisterSellerIn registers a seller in the named market.
func (c *Client) RegisterSellerIn(ctx context.Context, marketID string, reg SellerRegistration) (SellerInfo, error) {
	var out SellerInfo
	return out, c.do(ctx, http.MethodPost, c.marketPath(marketID, "/sellers"), reg, &out)
}

// RemoveSellerIn releases a seller from the named market's roster. Before
// the market's first trade the seller is simply unregistered; mid-life the
// market applies the leave (the last seller cannot be removed).
func (c *Client) RemoveSellerIn(ctx context.Context, marketID, sellerID string) error {
	return c.do(ctx, http.MethodDelete, c.marketPath(marketID, "/sellers/"+url.PathEscape(sellerID)), nil, nil)
}

// Watch subscribes to the named market's live SSE stream, invoking fn for
// every event — the initial "state" snapshot, then "roster" and "weights"
// deltas — until ctx is canceled, the server closes the stream, or fn
// returns a non-nil error (which Watch returns verbatim). A canceled ctx
// returns ctx.Err(); a server-side close returns nil.
func (c *Client) Watch(ctx context.Context, marketID string, fn func(StreamEvent) error) error {
	path := c.marketPath(marketID, "/stream")
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return fmt.Errorf("httpapi: building request: %w", err)
	}
	req.Header.Set("Accept", "text/event-stream")
	// The stream is deliberately long-lived: strip the client's request
	// timeout (sized for unary calls) while keeping its transport.
	hc := *c.http
	hc.Timeout = 0
	resp, err := hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("httpapi: GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return statusError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var data bytes.Buffer
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "": // frame boundary: dispatch accumulated data
			if data.Len() == 0 {
				continue // heartbeat comment frame
			}
			var ev StreamEvent
			if err := json.Unmarshal(data.Bytes(), &ev); err != nil {
				return fmt.Errorf("httpapi: decoding stream event: %w", err)
			}
			data.Reset()
			if err := fn(ev); err != nil {
				return err
			}
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
			// "event:" lines duplicate the payload's type field and ":"
			// lines are heartbeats — both fall through untouched.
		}
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("httpapi: reading stream: %w", err)
	}
	return nil
}

// SellerIn fetches one seller's state in the named market: weight, roster
// epoch and, on budgeted markets, the ε budget, spend and last similarity
// discount. Unknown sellers answer 404 seller_not_found.
func (c *Client) SellerIn(ctx context.Context, marketID, sellerID string) (SellerInfo, error) {
	var out SellerInfo
	return out, c.do(ctx, http.MethodGet, c.marketPath(marketID, "/sellers/"+url.PathEscape(sellerID)), nil, &out)
}

// TopUpBudgetIn raises a seller's privacy budget in the named market by add
// (ε) and returns the refreshed seller resource. Markets without a budget
// answer a field-level 400; unknown sellers 404 seller_not_found.
func (c *Client) TopUpBudgetIn(ctx context.Context, marketID, sellerID string, add float64) (SellerInfo, error) {
	var out SellerInfo
	path := c.marketPath(marketID, "/sellers/"+url.PathEscape(sellerID)+"/budget")
	return out, c.do(ctx, http.MethodPost, path, TopUpRequest{Add: add}, &out)
}

// SellersIn lists a page of the named market's sellers.
func (c *Client) SellersIn(ctx context.Context, marketID string, page Page) ([]SellerInfo, error) {
	var out []SellerInfo
	return out, c.do(ctx, http.MethodGet, c.marketPath(marketID, "/sellers")+page.query(), nil, &out)
}

// QuoteBatch solves a batch of demands concurrently against one consistent
// view of the named market. Results[i] answers demands[i]; the response is
// deterministic regardless of the server's worker count.
func (c *Client) QuoteBatch(ctx context.Context, marketID string, demands []Demand) ([]Quote, error) {
	var out QuoteBatchResult
	err := c.do(ctx, http.MethodPost, c.marketPath(marketID, "/quotes"), QuoteBatchRequest{Demands: demands}, &out)
	return out.Quotes, err
}

// QuoteIn solves one demand in the named market — a batch of one on the
// /v2 quotes endpoint.
func (c *Client) QuoteIn(ctx context.Context, marketID string, d Demand) (Quote, error) {
	qs, err := c.QuoteBatch(ctx, marketID, []Demand{d})
	if err != nil {
		return Quote{}, err
	}
	if len(qs) != 1 {
		return Quote{}, fmt.Errorf("httpapi: batch of one answered %d quotes", len(qs))
	}
	return qs[0], nil
}

// TradeIn executes one full trading round in the named market.
func (c *Client) TradeIn(ctx context.Context, marketID string, d Demand) (TradeResult, error) {
	var out TradeResult
	return out, c.do(ctx, http.MethodPost, c.marketPath(marketID, "/trades"), d, &out)
}

// TradesIn returns a page of the named market's ledger.
func (c *Client) TradesIn(ctx context.Context, marketID string, page Page) ([]TradeResult, error) {
	var out []TradeResult
	return out, c.do(ctx, http.MethodGet, c.marketPath(marketID, "/trades")+page.query(), nil, &out)
}

// WeightsIn returns the named market's broker dataset weights.
func (c *Client) WeightsIn(ctx context.Context, marketID string) ([]float64, error) {
	var out []float64
	return out, c.do(ctx, http.MethodGet, c.marketPath(marketID, "/weights"), nil, &out)
}

func (c *Client) marketPath(id, suffix string) string {
	return "/v2/markets/" + url.PathEscape(id) + suffix
}

// StatusError is returned for non-2xx responses, carrying the HTTP status
// and the server's decoded error envelope.
type StatusError struct {
	// Code is the HTTP status code.
	Code int
	// APICode is the server's stable machine-readable error code (one of
	// the httpapi.Code* constants), "" when the body was not the standard
	// envelope.
	APICode string
	// Field names the request field at fault for validation failures.
	Field string
	// Message is the server's human-readable description; for non-envelope
	// bodies it falls back to the raw body or the HTTP status text.
	Message string
	// RetryAfter is the server's backoff hint on 429/503 responses, parsed
	// from the Retry-After header (delta-seconds or HTTP-date form) with
	// the envelope's retry_after_seconds as fallback; 0 when the server
	// sent none. Retry honors it over its own exponential schedule.
	RetryAfter time.Duration
}

// Temporary reports whether the failure is worth retrying: 429 (the market
// queue was full) and 503 (draining or a dropped round). Everything else —
// validation, conflicts, timeouts the server already waited out — is not.
func (e *StatusError) Temporary() bool {
	return e.Code == http.StatusTooManyRequests || e.Code == http.StatusServiceUnavailable
}

// Error implements error.
func (e *StatusError) Error() string {
	switch {
	case e.APICode != "" && e.Field != "":
		return fmt.Sprintf("httpapi: server returned %d (%s, field %q): %s", e.Code, e.APICode, e.Field, e.Message)
	case e.APICode != "":
		return fmt.Sprintf("httpapi: server returned %d (%s): %s", e.Code, e.APICode, e.Message)
	default:
		return fmt.Sprintf("httpapi: server returned %d: %s", e.Code, e.Message)
	}
}

// statusError decodes a non-2xx response body into a StatusError: the
// unified envelope when present, the raw body as a fallback so no error
// detail is ever silently dropped.
func statusError(resp *http.Response) *StatusError {
	se := &StatusError{Code: resp.StatusCode, Message: resp.Status}
	se.RetryAfter = parseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil || len(bytes.TrimSpace(raw)) == 0 {
		return se
	}
	var env errorEnvelope
	if err := json.Unmarshal(raw, &env); err == nil && env.Error != nil && env.Error.Code != "" {
		se.APICode = env.Error.Code
		se.Field = env.Error.Field
		se.Message = env.Error.Message
		if se.RetryAfter == 0 && env.Error.RetryAfter > 0 {
			se.RetryAfter = time.Duration(env.Error.RetryAfter) * time.Second
		}
		return se
	}
	se.Message = string(bytes.TrimSpace(raw))
	return se
}

// parseRetryAfter decodes a Retry-After header value in either RFC 9110
// form — delta-seconds ("7") or an HTTP-date ("Wed, 21 Oct 2015 07:28:00
// GMT", relative to now). Unparseable or past values report 0.
func parseRetryAfter(v string, now time.Time) time.Duration {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// RetryPolicy bounds Retry's exponential backoff. The zero value selects
// the defaults noted per field.
type RetryPolicy struct {
	// Attempts is the total try budget including the first call (0 → 4).
	Attempts int
	// Base is the first backoff sleep, doubled after each retry (0 → 100ms).
	Base time.Duration
	// Max caps every individual sleep, including server Retry-After hints
	// (0 → 5s).
	Max time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 4
	}
	if p.Base <= 0 {
		p.Base = 100 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 5 * time.Second
	}
	return p
}

// Retry runs fn with bounded exponential backoff until it succeeds, fails
// terminally, or the attempt budget is spent. Only temporary StatusErrors
// — 429 overloaded and 503 draining/canceled — are retried; each sleep is
// the longer of the exponential schedule and the server's Retry-After
// hint, capped at the policy's Max.
//
// Retry is opt-in by design: the Client never retries on its own, and
// callers must not wrap non-idempotent calls like Trade or TradeIn — a
// request that died on the wire may still have committed server-side, and
// replaying it would execute a second round. Quotes, listings and metrics
// reads are safe.
func Retry(ctx context.Context, p RetryPolicy, fn func(ctx context.Context) error) error {
	p = p.withDefaults()
	delay := p.Base
	for attempt := 1; ; attempt++ {
		err := fn(ctx)
		if err == nil || attempt >= p.Attempts {
			return err
		}
		var se *StatusError
		if !errors.As(err, &se) || !se.Temporary() {
			return err
		}
		sleep := delay
		if se.RetryAfter > sleep {
			sleep = se.RetryAfter
		}
		if sleep > p.Max {
			sleep = p.Max
		}
		timer := time.NewTimer(sleep)
		select {
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		case <-timer.C:
		}
		delay *= 2
	}
}

func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("httpapi: encoding request: %w", err)
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("httpapi: building request: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("httpapi: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return statusError(resp)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("httpapi: decoding %s %s response: %w", method, path, err)
	}
	return nil
}
