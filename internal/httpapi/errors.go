package httpapi

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"share/internal/budget"
	"share/internal/market"
	"share/internal/pool"
)

// Error is the typed API error behind every non-2xx response, v1 and v2
// alike. It renders as the unified envelope
//
//	{"error": {"code": "...", "field": "...", "message": "..."}}
//
// Code is machine-readable and stable across releases; Field names the
// offending request field for validation failures; Message is
// human-readable and free to change.
type Error struct {
	// Status is the HTTP status the error responds with (not serialized —
	// it is the response's status line).
	Status int `json:"-"`
	// Code is the stable machine-readable classification.
	Code string `json:"code"`
	// Field names the request field at fault, when one is identifiable.
	Field string `json:"field,omitempty"`
	// Message is the human-readable description.
	Message string `json:"message"`
	// RetryAfter, when positive, is the server's backoff hint in seconds
	// (429 overloaded / 503 draining). It is also emitted as the standard
	// Retry-After response header.
	RetryAfter int `json:"retry_after_seconds,omitempty"`
}

// Error implements error.
func (e *Error) Error() string {
	if e.Field != "" {
		return fmt.Sprintf("%s: field %q: %s", e.Code, e.Field, e.Message)
	}
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// Stable error codes. Every non-2xx response carries exactly one of these.
const (
	CodeInvalidBody     = "invalid_body"     // 400: body not decodable as the endpoint's request type
	CodeBodyTooLarge    = "body_too_large"   // 413: body exceeds the server cap
	CodeInvalidField    = "invalid_field"    // 400: a named field failed validation
	CodeInvalidDemand   = "invalid_demand"   // 400: the demand was rejected by the game (wraps market.ErrDemand)
	CodeMarketNotFound  = "market_not_found" // 404: no such market
	CodeMarketExists    = "market_exists"    // 409: market ID already hosted
	CodeMarketClosed    = "market_closed"    // 409: market is draining for deletion
	CodeMarketProtected = "market_protected" // 409: the default market cannot be deleted (v1 aliases onto it)
	CodeNoSellers       = "no_sellers"       // 409: quote/trade before any registration
	CodeRosterMismatch  = "roster_mismatch"  // 400: a roster change or replayed roster state was inconsistent
	CodeSellerExists    = "seller_exists"    // 409: duplicate seller ID
	CodeSellerNotFound  = "seller_not_found" // 404: no such seller in the market's roster
	CodeBudgetExhausted = "budget_exhausted" // 409: a trade's ε charge would overrun a seller's privacy budget
	CodeTimeout         = "timeout"          // 504: the round outran its deadline
	CodeCanceled        = "canceled"         // 503: the client disconnected mid-round
	CodeOverloaded      = "overloaded"       // 429: the market's trade queue is full; honor Retry-After
	CodeDraining        = "draining"         // 503: the server is shutting down; retry against a healthy instance
	CodeInternal        = "internal"         // 500: market-side fault
)

// drainRetryAfterSeconds is the Retry-After hint attached to 503 draining
// responses: long enough for a load balancer to fail the client over,
// short enough that a restarting single instance is retried promptly.
const drainRetryAfterSeconds = 5

// apiErrorf builds a typed Error in one line.
func apiErrorf(status int, code, format string, args ...any) *Error {
	return &Error{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// fieldErrorf builds a field-level 400.
func fieldErrorf(field, format string, args ...any) *Error {
	return &Error{Status: http.StatusBadRequest, Code: CodeInvalidField, Field: field, Message: fmt.Sprintf(format, args...)}
}

// classifyError coerces any error into a typed *Error: typed errors pass
// through, pool/market/context sentinels map onto their stable codes, and
// anything unrecognized is an internal fault. A BatchError localizes the
// classified inner error to its demand index.
func classifyError(err error) *Error {
	// BatchError first: it wraps the real error, and the index prefix must
	// survive even when the inner error is already a typed *Error.
	var be *pool.BatchError
	if errors.As(err, &be) {
		inner := classifyError(be.Err)
		out := *inner
		if out.Field != "" {
			out.Field = fmt.Sprintf("demands[%d].%s", be.Index, out.Field)
		} else {
			out.Field = fmt.Sprintf("demands[%d]", be.Index)
		}
		return &out
	}
	var apiErr *Error
	if errors.As(err, &apiErr) {
		return apiErr
	}
	var fe *pool.FieldError
	if errors.As(err, &fe) {
		return &Error{Status: http.StatusBadRequest, Code: CodeInvalidField, Field: fe.Field, Message: fe.Msg}
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return apiErrorf(http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
			"request body exceeds %d bytes", tooBig.Limit)
	}
	// Budget exhaustion before the roster check: the typed error names the
	// refused seller, and a 409 with the ledger numbers is actionable (top
	// up or wait) where a generic roster 400 would not be.
	var ee *budget.ExhaustedError
	if errors.As(err, &ee) {
		return &Error{Status: http.StatusConflict, Code: CodeBudgetExhausted, Field: "sid", Message: err.Error()}
	}
	var re *market.RosterError
	if errors.As(err, &re) {
		e := &Error{Status: http.StatusBadRequest, Code: CodeRosterMismatch, Message: err.Error()}
		if re.SellerID != "" {
			e.Field = "seller_id"
		}
		return e
	}
	var oe *pool.OverloadError
	if errors.As(err, &oe) {
		secs := int((oe.RetryAfter + time.Second - 1) / time.Second) // ceil: never hint "0"
		if secs < 1 {
			secs = 1
		}
		e := apiErrorf(http.StatusTooManyRequests, CodeOverloaded, "%v", err)
		e.RetryAfter = secs
		return e
	}
	switch {
	case errors.Is(err, pool.ErrOverloaded):
		// An overload rejection without the typed wrapper still answers 429
		// with the floor hint.
		e := apiErrorf(http.StatusTooManyRequests, CodeOverloaded, "%v", err)
		e.RetryAfter = 1
		return e
	case errors.Is(err, pool.ErrDraining):
		e := apiErrorf(http.StatusServiceUnavailable, CodeDraining, "%v", err)
		e.RetryAfter = drainRetryAfterSeconds
		return e
	case errors.Is(err, pool.ErrMarketNotFound):
		return apiErrorf(http.StatusNotFound, CodeMarketNotFound, "%v", err)
	case errors.Is(err, pool.ErrMarketExists):
		return apiErrorf(http.StatusConflict, CodeMarketExists, "%v", err)
	case errors.Is(err, pool.ErrMarketClosed):
		return apiErrorf(http.StatusConflict, CodeMarketClosed, "%v", err)
	case errors.Is(err, pool.ErrNoSellers):
		return apiErrorf(http.StatusConflict, CodeNoSellers, "%v", err)
	case errors.Is(err, pool.ErrSellerExists):
		return apiErrorf(http.StatusConflict, CodeSellerExists, "%v", err)
	case errors.Is(err, pool.ErrSellerNotFound):
		return &Error{Status: http.StatusNotFound, Code: CodeSellerNotFound, Field: "sid", Message: err.Error()}
	case errors.Is(err, market.ErrPieces):
		return &Error{Status: http.StatusBadRequest, Code: CodeInvalidDemand, Field: "n", Message: err.Error()}
	case errors.Is(err, market.ErrDemand):
		return apiErrorf(http.StatusBadRequest, CodeInvalidDemand, "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		return apiErrorf(http.StatusGatewayTimeout, CodeTimeout, "%v", err)
	case errors.Is(err, context.Canceled):
		return apiErrorf(http.StatusServiceUnavailable, CodeCanceled, "%v", err)
	default:
		return apiErrorf(http.StatusInternalServerError, CodeInternal, "%v", err)
	}
}

// errorEnvelope is the wire shape of every non-2xx response.
type errorEnvelope struct {
	Error *Error `json:"error"`
}

// writeError classifies err and writes the unified envelope. Backoff hints
// ride both in the envelope (retry_after_seconds) and the standard
// Retry-After header, so header-only clients and body-parsing clients see
// the same hint.
func writeError(w http.ResponseWriter, err error) {
	e := classifyError(err)
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfter))
	}
	writeJSON(w, e.Status, errorEnvelope{Error: e})
}

// writeDecodeError maps body-decoding failures: a tripped MaxBytesReader
// classifies as 413, everything else (malformed JSON, unknown fields) is a
// 400 invalid_body.
func writeDecodeError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, err)
		return
	}
	writeError(w, apiErrorf(http.StatusBadRequest, CodeInvalidBody, "%v", err))
}
