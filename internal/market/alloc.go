package market

import (
	"fmt"
	"math"
	"slices"
)

// MaxPieces caps the data pieces one trade buys. A round sizes its sale
// buffers as pieces × features, so an unbounded demand would let one
// request exhaust the process's memory; the cap admits Fig. 3's largest
// sale, 1,000,000 pieces over 10,000 sellers. Quotes are not capped.
const MaxPieces = 1_000_000

// salePieces rounds a trade's demand n to whole data pieces: the one place
// a round sizes its sale.
func salePieces(n float64) (int, error) {
	if !(n >= 0.5 && n < MaxPieces+0.5) {
		return 0, fmt.Errorf("market: data transaction: %w: n = %g must round to 1..%d pieces", ErrPieces, n, MaxPieces)
	}
	return int(n + 0.5), nil
}

// IntegerAllocation converts the fractional allocation χ (Eq. 13) into whole
// data-piece counts summing exactly to n, using the largest-remainder
// (Hamilton) method: each seller receives ⌊χᵢ⌋ pieces, then the leftover
// pieces go to the sellers with the largest fractional parts. Ties break
// toward lower indices for determinism. A zero or negative total allocates
// nothing.
func IntegerAllocation(chi []float64, n int) []int {
	out := make([]int, len(chi))
	allocatePieces(out, chi, n, nil)
	return out
}

// remainder is one positive-χ seller's fractional share in the
// largest-remainder pass.
type remainder struct {
	idx  int
	frac float64
}

// allocatePieces is IntegerAllocation into out, which must hold len(chi)
// entries (every one is written). The remainder pass works in rems, whose
// contents are irrelevant; the slice is returned, grown as needed, for the
// next call.
func allocatePieces(out []int, chi []float64, n int, rems []remainder) []remainder {
	clear(out)
	if n <= 0 || len(chi) == 0 {
		return rems
	}
	var total float64
	for _, c := range chi {
		if c > 0 {
			total += c
		}
	}
	if total <= 0 {
		return rems
	}
	rems = rems[:0]
	assigned := 0
	for i, c := range chi {
		if c <= 0 {
			continue
		}
		// Rescale so the fractional allocation sums to n even when the
		// caller passes an unnormalized χ.
		scaled := c * float64(n) / total
		fl := math.Floor(scaled)
		out[i] = int(fl)
		assigned += out[i]
		rems = append(rems, remainder{idx: i, frac: scaled - fl})
	}
	slices.SortStableFunc(rems, largerFrac)
	for k := 0; assigned < n && k < len(rems); k++ {
		out[rems[k].idx]++
		assigned++
	}
	// Degenerate case: more leftovers than positive-χ sellers (only when
	// floats conspire); round-robin the rest.
	for i := 0; assigned < n && len(rems) > 0; i = (i + 1) % len(rems) {
		out[rems[i].idx]++
		assigned++
	}
	return rems
}

// largerFrac orders remainders by descending fractional part, ties kept in
// seller order by the stable sort. The sort consults only whether the
// result is negative, which is exactly when a.frac > b.frac, NaN included.
func largerFrac(a, b remainder) int {
	switch {
	case a.frac > b.frac:
		return -1
	case b.frac > a.frac:
		return 1
	}
	return 0
}
