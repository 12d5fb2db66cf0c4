package market

import (
	"errors"
	"fmt"
)

// ErrDemand marks a round failure caused by the buyer's demand — invalid
// utility parameters, an infeasible (N, v) pair, or anything else the
// client controls. Callers (the HTTP layer in particular) use
// errors.Is(err, ErrDemand) to map the failure to a 4xx response; round
// errors NOT wrapping ErrDemand are market-side faults (product training,
// valuation) and belong to the 5xx class. Context cancellation surfaces as
// the usual context.Canceled / context.DeadlineExceeded sentinels.
var ErrDemand = errors.New("invalid demand")

// ErrPieces marks a trade whose demand n rounds to fewer than one data
// piece or to more than MaxPieces. It wraps ErrDemand.
var ErrPieces = fmt.Errorf("%w: trade size n out of range", ErrDemand)

// RosterError reports a roster-consistency failure: a duplicate join, an
// unknown or last-remaining seller on leave, a snapshot or WAL frame whose
// roster disagrees with the live market, or a churn epoch that does not
// follow the market's. Callers match it with errors.As; the HTTP layer maps
// it onto a field-level 400 with a stable error code.
type RosterError struct {
	// SellerID names the offending seller ("" for count/epoch mismatches).
	SellerID string
	// Msg describes the mismatch.
	Msg string
}

func (e *RosterError) Error() string {
	if e.SellerID == "" {
		return "market roster: " + e.Msg
	}
	return fmt.Sprintf("market roster: seller %q: %s", e.SellerID, e.Msg)
}
