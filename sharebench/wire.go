package main

// The in-process replay does what each HTTP handler does, through the same
// public calls. The handler's own glue (body decoding, demand validation,
// response mapping) is unexported in internal/httpapi, so it is mirrored
// here; the correctness gate compares the bytes it produces with the served
// bodies, so any drift between the two shows as a failed run.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"share/internal/core"
	"share/internal/httpapi"
	"share/internal/market"
	"share/internal/pool"
)

// decodeBody decodes a request body the way the server's decodeJSON does:
// unknown fields rejected, trailing data rejected.
func decodeBody(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		if err == nil {
			return errors.New("invalid request body: unexpected trailing data")
		}
		return fmt.Errorf("invalid request body: %w", err)
	}
	return nil
}

// buyerOf maps a demand onto the paper's buyer the way the server does.
// Scripted demands are always valid, so only the field mapping is needed.
func buyerOf(d httpapi.Demand) core.Buyer {
	b := core.PaperBuyer()
	if d.N != 0 {
		b.N = d.N
	}
	if d.V != 0 {
		b.V = d.V
	}
	switch {
	case d.Theta1 != 0 && d.Theta2 != 0:
		b.Theta1, b.Theta2 = d.Theta1, d.Theta2
	case d.Theta1 != 0:
		b.Theta1, b.Theta2 = d.Theta1, 1-d.Theta1
	case d.Theta2 != 0:
		b.Theta1, b.Theta2 = 1-d.Theta2, d.Theta2
	}
	if d.Rho1 != 0 {
		b.Rho1 = d.Rho1
	}
	if d.Rho2 != 0 {
		b.Rho2 = d.Rho2
	}
	return b
}

func quoteOf(p *core.Profile, solver string) httpapi.Quote {
	q := httpapi.Quote{
		Solver:       solver,
		ProductPrice: p.PM,
		DataPrice:    p.PD,
		Fidelities:   p.Tau,
		Allocations:  p.Chi,
		BuyerProfit:  p.BuyerProfit,
		BrokerProfit: p.BrokerProfit,
		SellerProfit: p.SellerProfits,
		DatasetQ:     p.QD,
		ProductQ:     p.QM,
	}
	if p.Approx != nil {
		q.Approx = &httpapi.ApproxInfo{ErrorLo: p.Approx.Lo, ErrorHi: p.Approx.Hi, ConditionHolds: p.Approx.ConditionHolds}
	}
	return q
}

func tradeResultOf(tx *market.Transaction) httpapi.TradeResult {
	return httpapi.TradeResult{
		Round:             tx.Round,
		Product:           tx.Product,
		Solver:            tx.Solver,
		Quote:             quoteOf(tx.Profile, tx.Solver),
		Pieces:            tx.Pieces,
		Compensations:     tx.Compensations,
		Payment:           tx.Payment,
		ManufacturingCost: tx.ManufacturingCost,
		Performance:       tx.Metrics.Performance,
		ExplainedVariance: tx.Metrics.Detail["explained_variance"],
		RMSE:              tx.Metrics.Detail["rmse"],
		Weights:           tx.Weights,
		TotalSeconds:      tx.Timings.Total.Seconds(),
	}
}

func sellerInfoOf(st pool.SellerState, epoch uint64) httpapi.SellerInfo {
	return httpapi.SellerInfo{
		ID:            st.ID,
		Lambda:        st.Lambda,
		Rows:          st.Rows,
		Weight:        st.Weight,
		RosterEpoch:   epoch,
		EpsilonBudget: st.Budget,
		EpsilonSpent:  st.Spent,
		Discount:      st.Discount,
	}
}

// encodeBody renders a response the way the server's writeJSON does.
func encodeBody(buf *bytes.Buffer, v any) error {
	buf.Reset()
	return json.NewEncoder(buf).Encode(v)
}

// stableBody strips the wall-clock field of a trade response, the one part
// of a served body that legitimately differs between two executions.
func stableBody(k kind, body []byte) []byte {
	if k != kTrade {
		return body
	}
	if i := bytes.LastIndex(body, []byte(`,"total_seconds":`)); i >= 0 {
		return body[:i]
	}
	return body
}
