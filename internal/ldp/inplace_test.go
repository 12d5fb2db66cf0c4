package ldp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"share/internal/stat"
)

// copyingPerturb is the copying loop the Laplace mechanism ran before
// Perturb wrote in place: the same per-attribute draws, into a fresh slice.
func copyingPerturb(b Bounds, rng *rand.Rand, record []float64, eps float64) []float64 {
	out := make([]float64, len(record))
	if eps <= 0 {
		for j := range out {
			out[j] = stat.Uniform(rng, b.Lo[j], b.Hi[j])
		}
		return out
	}
	perAttr := eps / float64(len(record))
	for j, v := range record {
		out[j] = v + stat.Laplace(rng, 0, b.Width(j)/perAttr)
	}
	return out
}

// TestPerturbInPlace: the Laplace mechanism, bare and metered, overwrites
// the record with exactly the values the copying loop draws from an rng
// with the same seed, leaves both rngs at the same point of their streams,
// and a metered mechanism reports once per call.
func TestPerturbInPlace(t *testing.T) {
	lo := []float64{0, -5, 10, 1, 100}
	hi := []float64{1, 5, 20, 3, 400}
	for _, attrs := range []int{1, 5} {
		b, err := NewBounds(lo[:attrs], hi[:attrs])
		if err != nil {
			t.Fatal(err)
		}
		var inner Mechanism = NewLaplace(b)
		for _, metered := range []bool{false, true} {
			for _, eps := range []float64{0, 0.7, 5} {
				name := fmt.Sprintf("laplace/attrs=%d/metered=%v/eps=%g", attrs, metered, eps)
				t.Run(name, func(t *testing.T) {
					mech, calls := inner, 0
					if metered {
						mech = Metered(inner, func(e float64, records int) {
							if e != eps || records != 1 {
								t.Errorf("hook saw (%g, %d), want (%g, 1)", e, records, eps)
							}
							calls++
						})
					}
					seed := int64(attrs*1000) + int64(eps*10)
					rng, ref := stat.NewRand(seed), stat.NewRand(seed)
					src := stat.NewRand(seed + 1)
					const n = 200
					for i := 0; i < n; i++ {
						record := make([]float64, attrs)
						for j := range record {
							record[j] = stat.Uniform(src, lo[j], hi[j])
						}
						want := copyingPerturb(b, ref, record, eps)
						mech.Perturb(rng, record, eps)
						for j := range record {
							if math.Float64bits(record[j]) != math.Float64bits(want[j]) {
								t.Fatalf("record %d attribute %d: in place %v, copying loop %v", i, j, record[j], want[j])
							}
						}
					}
					if got, want := rng.Int63(), ref.Int63(); got != want {
						t.Fatalf("rng streams diverged: next Int63 %d vs %d", got, want)
					}
					if metered && calls != n {
						t.Fatalf("hook fired %d times for %d calls", calls, n)
					}
				})
			}
		}
	}
}
