package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
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
		for i := 0; i < mk.sellers; i++ {
			reg := pool.Registration{ID: fmt.Sprintf("s%03d", i), Lambda: 0.2 + 0.7*float64(i%13)/13, SyntheticRows: 20}
			if _, err := m.RegisterSeller(reg); err != nil {
				t.Fatalf("%s: registering seller %d: %v", mk.id, i, err)
			}
		}
	}
	return srv
}

// quoteBody is one quote request: a single demand (batch false) or a batch.
type quoteBody struct {
	market string
	batch  bool
	body   string
}

// quote sends q to srv. Single quotes call the /v1/quote handler bound to
// q.market, since the routed /v1 alias reaches only the default market.
func quote(t *testing.T, srv *Server, q quoteBody) []byte {
	t.Helper()
	m, err := srv.Pool().Get(q.market)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(q.body))
	if q.batch {
		srv.handleQuoteBatch(rec, req, m)
	} else {
		srv.handleQuote(rec, req, m)
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("%s quote %s: %d %s", q.market, q.body, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
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

// TestQuoteScratchDoesNotLeak sends quotes whose scratch is reused from
// the previous request — batches of 8 and 3, single quotes, solvers with
// and without a Theorem 5.1 bound, alternating a 100-seller and a 4-seller
// market — and requires every body to equal the body a fresh server, with
// no scratch to reuse, answers the same request with.
func TestQuoteScratchDoesNotLeak(t *testing.T) {
	seq := []quoteBody{
		{"big", true, batchOf(8, "meanfield", 100)},
		{"small", true, batchOf(3, "analytic", 150)},
		{"big", false, `{"n":220,"v":0.8}`},
		{"small", false, `{"n":90,"v":0.7,"solver":"meanfield"}`},
		{"big", false, `{"n":310,"v":0.85}`},
		{"small", false, `{"n":120,"v":0.9}`},
		{"big", true, batchOf(3, "", 200)},
		{"small", true, batchOf(8, "meanfield", 60)},
		{"small", false, `{"n":140,"v":0.8,"solver":"general"}`},
		{"big", true, `{"demands":[{"n":180,"v":0.8,"solver":"general"},{"n":180,"v":0.8,"solver":"meanfield"},{"n":180,"v":0.8}]}`},
		{"big", false, `{"n":75,"v":0.75,"solver":"meanfield"}`},
		{"small", true, batchOf(1, "", 400)},
	}
	srv := quoteServer(t)
	for i, q := range seq {
		got := quote(t, srv, q)
		want := quote(t, quoteServer(t), q)
		if !bytes.Equal(got, want) {
			t.Errorf("request %d (%s %s): body differs from a fresh server's\n got: %s\nwant: %s", i, q.market, q.body, got, want)
		}
	}
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
	if sc := srv.quotes.Get(); cap(sc.profiles) != 0 {
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
