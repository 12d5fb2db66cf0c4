package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// fuzzBodyCap caps the bodies FuzzDecodeBody decodes and serves, so the
// oversized path runs on inputs the fuzzer can reach.
const fuzzBodyCap = 512

// bodyTypes are the request types the handlers decode. into returns what
// a handler decodes into, reset as the handler resets it; fill is a body
// that sets every field, decoded into a scratch first so that anything the
// reset misses shows.
var bodyTypes = []struct {
	name string
	into func(sc *requestScratch) any
	fill string
}{
	{"Demand", func(sc *requestScratch) any { return sc.freshDemand() },
		`{"n":100,"v":0.9,"theta1":0.3,"theta2":0.7,"rho1":2,"rho2":3,"product":"ridge","solver":"meanfield"}`},
	{"QuoteBatchRequest", func(sc *requestScratch) any { return sc.freshBatch() },
		`{"demands":[{"n":1,"v":0.5,"theta1":0.2,"rho1":1,"rho2":2,"product":"mean","solver":"general"},` +
			`{"n":2,"theta2":0.4,"solver":"meanfield"},{"n":3,"v":0.7,"rho2":9},{"n":4,"product":"ols"}]}`},
	{"MarketSpec", func(*requestScratch) any { return new(MarketSpec) },
		`{"id":"m1","solver":"meanfield","seed":7,"durability":"sync","trade_concurrency":2,"trade_queue":0,"epsilon_budget":5,"composition":"advanced"}`},
	{"SellerRegistration", func(*requestScratch) any { return new(SellerRegistration) },
		`{"id":"s9","lambda":0.5,"rows":[[1,2,3,4],[5,6,7,8]],"targets":[1,2],"synthetic_rows":20}`},
	{"TopUpRequest", func(*requestScratch) any { return new(TopUpRequest) }, `{"add":2.5}`},
}

// cappedRequest is a POST of body read through the fuzz cap, as instrument
// caps every served body.
func cappedRequest(body []byte) *http.Request {
	req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
	req.Body = http.MaxBytesReader(nil, req.Body, fuzzBodyCap)
	return req
}

// FuzzDecodeBody: for each request type, a body decoded into an empty
// scratch and into one another body filled, after the handler's reset,
// gets the strict json.Decoder's verdict, error text and value. Then the
// body goes to the quote, batch, create-market and top-up routes, none of
// which may answer 5xx. Seeds: testdata/fuzz/FuzzDecodeBody.
func FuzzDecodeBody(f *testing.F) {
	srv := NewServer(Options{Seed: 1, Logf: func(string, ...any) {}, EpsilonBudget: 1e6, MaxBodyBytes: fuzzBodyCap})
	m, err := srv.Pool().Get(srv.DefaultMarket())
	if err != nil {
		f.Fatal(err)
	}
	addSellers(f, m, 4)
	h := srv.Handler()
	routes := []string{
		"/v1/quote",
		"/v2/markets/default/quotes",
		"/v2/markets",
		"/v2/markets/default/sellers/s000/budget",
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, bt := range bodyTypes {
			var sc requestScratch
			v := bt.into(&sc)
			want := reflect.New(reflect.TypeOf(v).Elem()).Interface()
			wantErr := decodeJSON(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), fuzzBodyCap), want)
			err := sc.decode(cappedRequest(body), v)
			sameDecode(t, bt.name+" into an empty scratch", body, err, wantErr, v, want)

			var used requestScratch
			if err := used.decode(cappedRequest([]byte(bt.fill)), bt.into(&used)); err != nil {
				t.Fatalf("%s: fill body refused: %v", bt.name, err)
			}
			v = bt.into(&used)
			err = used.decode(cappedRequest(body), v)
			// The handler reads only a batch's length, and a reused batch
			// keeps its array: an absent or null list decodes to an empty
			// slice where a fresh batch's stays nil.
			for _, x := range []any{v, want} {
				if b, ok := x.(*QuoteBatchRequest); ok && len(b.Demands) == 0 {
					b.Demands = nil
				}
			}
			sameDecode(t, bt.name+" into a used scratch", body, err, wantErr, v, want)
		}
		for _, path := range routes {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code >= 500 {
				t.Errorf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
			}
			var info MarketInfo
			if path == "/v2/markets" && rec.Code == http.StatusCreated && json.Unmarshal(rec.Body.Bytes(), &info) == nil {
				if err := srv.Pool().Delete(context.Background(), info.ID); err != nil {
					t.Fatalf("deleting market %q: %v", info.ID, err)
				}
			}
		}
	})
}

// sameDecode fails t unless a decode's error and value match the strict
// decoder's.
func sameDecode(t *testing.T, what string, body []byte, err, wantErr error, v, want any) {
	t.Helper()
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Errorf("%s, body %q: error %v, the strict decoder's %v", what, body, err, wantErr)
	}
	if !reflect.DeepEqual(v, want) {
		t.Errorf("%s, body %q: decoded %+v, the strict decoder %+v", what, body, v, want)
	}
}
