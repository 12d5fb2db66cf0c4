package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"share/internal/pool"
)

// fuzzSyntheticRows bounds the synthetic_rows a FuzzRegisterSeller input
// may mint: minting a valid count of rows costs time linear in it, and the
// fuzzer would spend its budget there.
const fuzzSyntheticRows = 64

// FuzzRegisterSeller sends each input as a POST /v2/markets/{id}/sellers
// body to a fresh in-memory server. Every body gets 201 or a 4xx in the
// typed error envelope — field-level for invalid_field — never a 5xx or a
// panic, and a body that registered once gets 409 seller_exists the second
// time. An input asking for more than fuzzSyntheticRows (but an allowed
// number of) synthetic rows is skipped. Seeds:
// testdata/fuzz/FuzzRegisterSeller.
func FuzzRegisterSeller(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var probe struct {
			SyntheticRows float64 `json:"synthetic_rows"`
		}
		if json.Unmarshal(body, &probe) == nil && probe.SyntheticRows > fuzzSyntheticRows && probe.SyntheticRows <= pool.MaxSyntheticRows {
			t.Skip("synthetic_rows too slow to mint")
		}
		h := NewServer(Options{Seed: 1, Logf: func(string, ...any) {}}).Handler()
		post := func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/markets/default/sellers", bytes.NewReader(body)))
			return rec
		}
		rec := post()
		if rec.Code == http.StatusCreated {
			var info SellerInfo
			if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil || info.ID == "" {
				t.Fatalf("201 for %q with body %s: %v", body, rec.Body, err)
			}
			if rec = post(); rec.Code != http.StatusConflict || envelopeOf(t, body, rec).Code != CodeSellerExists {
				t.Fatalf("a second registration of %q: status %d: %s", body, rec.Code, rec.Body)
			}
			return
		}
		if rec.Code < 400 || rec.Code >= 500 {
			t.Fatalf("registration %q: status %d: %s", body, rec.Code, rec.Body)
		}
		if e := envelopeOf(t, body, rec); e.Code == CodeInvalidField && e.Field == "" {
			t.Fatalf("registration %q: invalid_field names no field: %s", body, rec.Body)
		}
	})
}

// envelopeOf decodes rec's body as the typed error envelope.
func envelopeOf(t *testing.T, body []byte, rec *httptest.ResponseRecorder) *Error {
	t.Helper()
	var env errorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil || env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("registration %q: status %d without the error envelope: %s", body, rec.Code, rec.Body)
	}
	return env.Error
}
