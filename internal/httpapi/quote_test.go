package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"share/internal/pool"
)

// serve runs one request through the server's routed handler in-process
// and returns the status and body.
func serve(t *testing.T, srv *Server, method, path, body string) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// quoteServer builds a server hosting a 100-seller market "big" and a
// 4-seller market "small", registered straight through the pool.
func quoteServer(t *testing.T) *Server {
	t.Helper()
	srv := NewServer(Options{Seed: 1, Logf: func(string, ...any) {}})
	for _, mk := range []struct {
		id      string
		sellers int
	}{{"big", 100}, {"small", 4}} {
		m, err := srv.Pool().Create(pool.Spec{ID: mk.id})
		if err != nil {
			t.Fatal(err)
		}
		addSellers(t, m, mk.sellers)
	}
	return srv
}

// addSellers registers n synthetic sellers straight through the pool.
func addSellers(t testing.TB, m *pool.Market, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		reg := pool.Registration{ID: fmt.Sprintf("s%03d", i), Lambda: 0.2 + 0.7*float64(i%13)/13, SyntheticRows: 20}
		if _, err := m.RegisterSeller(reg); err != nil {
			t.Fatalf("%s: registering seller %d: %v", m.ID(), i, err)
		}
	}
}

// The kinds of request a quoteBody sends.
const (
	single = iota // POST /v1/quote
	batch         // POST /v2/markets/{id}/quotes
	trade         // POST /v2/markets/{id}/trades
)

// quoteBody is one request to a market: a single quote, a batch or a
// trade.
type quoteBody struct {
	market string
	kind   int
	body   string
}

// send serves q on srv and returns the status and body. It calls the
// handler bound to q.market, since the routed /v1 alias reaches only the
// default market.
func (q quoteBody) send(srv *Server) (int, []byte) {
	m, err := srv.Pool().Get(q.market)
	if err != nil {
		return 0, []byte(err.Error())
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(q.body))
	switch q.kind {
	case single:
		srv.handleQuote(rec, req, m)
	case batch:
		srv.handleQuoteBatch(rec, req, m)
	case trade:
		srv.handleTrade(rec, req, m)
	}
	return rec.Code, rec.Body.Bytes()
}

// batchOf renders n demands for the given solver, each a different n.
func batchOf(n int, solver string, n0 float64) string {
	demands := make([]Demand, n)
	for i := range demands {
		demands[i] = Demand{N: n0 + 25*float64(i), V: 0.8, Solver: solver}
	}
	raw, _ := json.Marshal(QuoteBatchRequest{Demands: demands})
	return string(raw)
}

// withoutSeconds drops a trade body's wall-clock total_seconds.
func withoutSeconds(t *testing.T, body []byte) []byte {
	t.Helper()
	var res map[string]any
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("trade body %s: %v", body, err)
	}
	delete(res, "total_seconds")
	out, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestQuoteScratchDoesNotLeak sends requests whose scratch is reused from
// the previous request — batches of 8 and 3, single quotes, solvers with
// and without a Theorem 5.1 bound, demands that set θ, ρ and the solver
// followed by demands that leave them out, alternating a 100-seller and a
// 4-seller market — and requires every body to equal the body a fresh
// server, with no scratch to reuse, answers the same request with. Then
// a meanfield ridge trade and a plain trade must each match a trade on a
// server whose free list was emptied first, minus the wall-clock
// total_seconds; and four goroutines replay the quotes against one server
// at once, each body again the fresh server's.
func TestQuoteScratchDoesNotLeak(t *testing.T) {
	seq := []quoteBody{
		{"big", batch, batchOf(8, "meanfield", 100)},
		{"small", batch, batchOf(3, "analytic", 150)},
		{"big", single, `{"n":220,"v":0.8}`},
		{"small", single, `{"n":90,"v":0.7,"solver":"meanfield"}`},
		{"big", single, `{"n":310,"v":0.85}`},
		{"small", single, `{"n":120,"v":0.9}`},
		{"big", batch, batchOf(3, "", 200)},
		{"small", batch, batchOf(8, "meanfield", 60)},
		{"small", single, `{"n":140,"v":0.8,"solver":"general"}`},
		{"big", batch, `{"demands":[{"n":180,"v":0.8,"solver":"general"},{"n":180,"v":0.8,"solver":"meanfield"},{"n":180,"v":0.8}]}`},
		{"big", single, `{"n":75,"v":0.75,"solver":"meanfield"}`},
		{"small", batch, batchOf(1, "", 400)},
		{"small", single, `{"n":160,"v":0.8,"theta1":0.3}`},
		{"small", single, `{"n":160,"v":0.8}`},
		{"small", single, `{"n":160,"theta2":0.35}`},
		{"small", single, `{"n":160}`},
		{"small", single, `{"n":160,"rho1":0.9,"rho2":120}`},
		{"small", single, `{"n":160,"v":0.8}`},
		{"big", single, `{"n":160,"solver":"meanfield"}`},
		{"big", single, `{"n":160}`},
		{"small", batch, `{"demands":[{"n":130,"theta1":0.3,"rho1":0.9,"solver":"meanfield"},{"n":140,"theta2":0.35,"rho2":120,"solver":"general"},{"n":150,"rho1":0.7,"rho2":300}]}`},
		{"small", batch, `{"demands":[{"n":130},{"n":140},{"n":150}]}`},
		{"small", batch, `{"demands":[{"n":130}]}`},
	}
	srv := quoteServer(t)
	want := make([][]byte, len(seq))
	for i, q := range seq {
		code, got := q.send(srv)
		wcode, w := q.send(quoteServer(t))
		if code != http.StatusOK || wcode != http.StatusOK {
			t.Fatalf("request %d (%s %s): status %d, fresh server %d (%s)", i, q.market, q.body, code, wcode, got)
		}
		if !bytes.Equal(got, w) {
			t.Errorf("request %d (%s %s): body differs from a fresh server's\n got: %s\nwant: %s", i, q.market, q.body, got, w)
		}
		want[i] = w
	}

	trades := []quoteBody{
		{"small", trade, `{"n":90,"v":0.8,"product":"ridge","solver":"meanfield"}`},
		{"small", trade, `{"n":90,"v":0.8}`},
	}
	fresh := quoteServer(t)
	for i, q := range trades {
		code, got := q.send(srv)
		// Hold every idle scratch, so the fresh side's trade finds none.
		for range runtime.GOMAXPROCS(0) {
			fresh.scratch.Get()
		}
		wcode, w := q.send(fresh)
		if code != http.StatusCreated || wcode != http.StatusCreated {
			t.Fatalf("trade %d (%s): status %d, fresh server %d (%s)", i, q.body, code, wcode, got)
		}
		if got, w := withoutSeconds(t, got), withoutSeconds(t, w); !bytes.Equal(got, w) {
			t.Errorf("trade %d (%s): body differs from a fresh server's\n got: %s\nwant: %s", i, q.body, got, w)
		}
	}

	shared := quoteServer(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range seq {
				if code, got := q.send(shared); code != http.StatusOK || !bytes.Equal(got, want[i]) {
					t.Errorf("concurrent request %d (%s %s): status %d, body differs from a fresh server's\n got: %s\nwant: %s", i, q.market, q.body, code, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// TestSyntheticRowsCapped: minting is linear in synthetic_rows, so the
// count is capped; past the cap a registration is a field-level 400 that
// allocates next to nothing, however large the number.
func TestSyntheticRowsCapped(t *testing.T) {
	srv := NewServer(Options{Seed: 1, Logf: func(string, ...any) {}})
	for _, rows := range []int{pool.MaxSyntheticRows + 1, 1_000_000_000} {
		body := fmt.Sprintf(`{"id":"big","lambda":0.5,"synthetic_rows":%d}`, rows)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		code, resp := serve(t, srv, http.MethodPost, "/v1/sellers", body)
		runtime.ReadMemStats(&after)
		if code != http.StatusBadRequest {
			t.Fatalf("synthetic_rows %d: status %d, want 400 (%s)", rows, code, resp)
		}
		if e := decodeErrorEnvelope(t, resp); e.Field != "synthetic_rows" {
			t.Errorf("synthetic_rows %d: error field %q, want synthetic_rows", rows, e.Field)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Errorf("synthetic_rows %d: refusing allocated %d bytes, want under 1 MiB", rows, alloc)
		}
	}
	body := fmt.Sprintf(`{"id":"big","lambda":0.5,"synthetic_rows":%d}`, pool.MaxSyntheticRows)
	if code, resp := serve(t, srv, http.MethodPost, "/v1/sellers", body); code != http.StatusCreated {
		t.Fatalf("synthetic_rows at the cap: status %d, want 201 (%s)", code, resp)
	}
}

// TestBatchQuoteCapped: a batch may carry up to maxBatchDemands demands;
// one more is a field-level 400 on demands naming the cap.
func TestBatchQuoteCapped(t *testing.T) {
	srv := NewServer(Options{Seed: 1, Logf: func(string, ...any) {}})
	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"id":"s%d","lambda":%g,"synthetic_rows":20}`, i, 0.3+0.1*float64(i))
		if code, resp := serve(t, srv, http.MethodPost, "/v1/sellers", body); code != http.StatusCreated {
			t.Fatalf("register: %d %s", code, resp)
		}
	}
	batch := func(n int) string {
		return `{"demands":[` + strings.TrimSuffix(strings.Repeat("{},", n), ",") + `]}`
	}
	code, resp := serve(t, srv, http.MethodPost, "/v2/markets/default/quotes", batch(maxBatchDemands))
	if code != http.StatusOK {
		t.Fatalf("%d demands: status %d, want 200 (%s)", maxBatchDemands, code, resp)
	}
	var res QuoteBatchResult
	if err := json.Unmarshal(resp, &res); err != nil || len(res.Quotes) != maxBatchDemands {
		t.Fatalf("%d demands answered with %d quotes (%v)", maxBatchDemands, len(res.Quotes), err)
	}
	// A full batch's scratch outgrows what the free list keeps idle, so it
	// is dropped rather than held for the next request.
	if sc := srv.scratch.Get(); cap(sc.profiles) != 0 {
		t.Errorf("the scratch of a %d-demand batch was kept for reuse (%d profiles)", maxBatchDemands, cap(sc.profiles))
	}
	code, resp = serve(t, srv, http.MethodPost, "/v2/markets/default/quotes", batch(maxBatchDemands+1))
	if code != http.StatusBadRequest {
		t.Fatalf("%d demands: status %d, want 400 (%s)", maxBatchDemands+1, code, resp)
	}
	e := decodeErrorEnvelope(t, resp)
	if e.Field != "demands" || !strings.Contains(e.Message, fmt.Sprint(maxBatchDemands)) {
		t.Errorf("%d demands: error %+v, want field demands naming the cap %d", maxBatchDemands+1, e, maxBatchDemands)
	}
}

// raceEnabled reports a race-detector build (set in race_test.go).
var raceEnabled bool

// discardWriter is a ResponseWriter that drops the body and keeps one
// header map, so what a request allocates is the handler's alone.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestQuoteBytesPerRequest: a warm quote allocates for net/http's side of
// the handler (the body cap, headers) and for what json.Unmarshal and
// the response encoder keep, not for the request's own memory: the body
// buffer, the decoded demand or batch, the profiles and the response
// are the reused request scratch's. Decoding through a json.Decoder built
// per request into a demand, batch and body of its own cost 1,272 B per
// single quote and 3,140 B per 8-demand mean-field batch on this
// 100-seller market, against about 470 B and 1,060 B without them. Under
// the race detector the requests still run, but the bounds are not
// checked.
func TestQuoteBytesPerRequest(t *testing.T) {
	srv := NewServer(Options{Seed: 1, Logf: func(string, ...any) {}})
	m, err := srv.Pool().Get(srv.DefaultMarket())
	if err != nil {
		t.Fatal(err)
	}
	addSellers(t, m, 100)
	h := srv.Handler()
	for _, tc := range []struct {
		name, path, body string
		bound            float64
	}{
		{"single quote", "/v1/quote", `{"n":220,"v":0.8}`, 870},
		{"8-demand batch", "/v2/markets/default/quotes", batchOf(8, "meanfield", 100), 2100},
	} {
		const warm, n = 20, 200
		reqs := make([]*http.Request, warm+n)
		for i := range reqs {
			reqs[i] = httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body))
		}
		w := &discardWriter{h: http.Header{}}
		for _, req := range reqs[:warm] {
			h.ServeHTTP(w, req)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, req := range reqs[warm:] {
			h.ServeHTTP(w, req)
		}
		runtime.ReadMemStats(&after)
		mean := float64(after.TotalAlloc-before.TotalAlloc) / n
		t.Logf("%s: %.0f B per request", tc.name, mean)
		if mean > tc.bound && !raceEnabled {
			t.Errorf("%s: %.0f B per request, want at most %.0f B", tc.name, mean, tc.bound)
		}
	}
}
