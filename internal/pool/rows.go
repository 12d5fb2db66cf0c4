package pool

import (
	"fmt"

	"share/internal/dataset"
	"share/internal/market"
)

// Seller rows cross the pool's trust boundary as [][]float64 — request
// bodies, WAL records and snapshot files all carry one JSON array per row —
// and live in memory as row-major dataset.Dataset blocks. storedData
// converts and checks them on the way in; Dataset.AppendRows gives
// encoding/json row views over the block on the way out.

// storedData converts one seller's wire or disk rows into the dataset the
// market holds. It is the single entry point for seller rows — live inline
// registrations, replayed register and seller_join records, and snapshot
// restore — and requires what the first trade would otherwise trip over:
// at least one row, rectangular rows, one target per row, and exactly the
// width of the test set every product is scored on (a wider row panics the
// scoring, a narrower one is scored against the wrong columns). A width
// mismatch is a *widthError.
func (m *Market) storedData(rows [][]float64, targets []float64) (*dataset.Dataset, error) {
	d, err := dataset.FromRows(rows, targets)
	if err != nil {
		return nil, err
	}
	if got, want := d.NumFeatures(), m.cfg.TestSet.NumFeatures(); got != want {
		return nil, &widthError{got: got, want: want}
	}
	return d, nil
}

// storedSeller is sel's registration as WAL records store it, its rows
// views over the dataset.
func storedSeller(sel *market.Seller) StoredSeller {
	return StoredSeller{ID: sel.ID, Lambda: sel.Lambda, Rows: sel.Data.AppendRows(nil), Targets: sel.Data.Y}
}

// widthError reports seller rows whose width differs from the market's
// test set. Releases before the check admitted such rows, so well-formed
// stored state can hold them; RestoreAll fails the boot on one rather than
// skip the market, whose files its next write would overwrite.
type widthError struct{ got, want int }

func (e *widthError) Error() string {
	return fmt.Sprintf("rows have %d features, the market's test set has %d", e.got, e.want)
}
