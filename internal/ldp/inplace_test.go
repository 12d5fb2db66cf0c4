package ldp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"share/internal/stat"
)

// copyingPerturb is the copying loop the mechanisms ran before Perturb
// wrote in place: the same per-attribute draws, into a fresh slice.
func copyingPerturb(kind string, b Bounds, delta float64, rng *rand.Rand, record []float64, eps float64) []float64 {
	out := make([]float64, len(record))
	if eps <= 0 {
		for j := range out {
			out[j] = stat.Uniform(rng, b.Lo[j], b.Hi[j])
		}
		return out
	}
	perAttr := eps / float64(len(record))
	for j, v := range record {
		switch kind {
		case "laplace":
			out[j] = v + stat.Laplace(rng, 0, b.Width(j)/perAttr)
		case "gaussian":
			c := math.Sqrt(2 * math.Log(1.25/delta))
			out[j] = v + stat.Gaussian(rng, 0, b.Width(j)*c/perAttr)
		case "piecewise":
			lo, w := b.Lo[j], b.Width(j)
			t := math.Max(-1, math.Min(1, 2*(v-lo)/w-1))
			out[j] = lo + (perturbPiecewise(rng, t, perAttr)+1)*w/2
		}
	}
	return out
}

// TestPerturbInPlace: every mechanism, bare and metered, overwrites the
// record with exactly the values the copying loop draws from an rng with
// the same seed, leaves both rngs at the same point of their streams, and
// a metered mechanism reports once per call.
func TestPerturbInPlace(t *testing.T) {
	const delta = 1e-5
	lo := []float64{0, -5, 10, 1, 100}
	hi := []float64{1, 5, 20, 3, 400}
	for _, attrs := range []int{1, 5} {
		b, err := NewBounds(lo[:attrs], hi[:attrs])
		if err != nil {
			t.Fatal(err)
		}
		gauss, err := NewGaussian(b, delta)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			kind  string
			inner Mechanism
		}{{"laplace", NewLaplace(b)}, {"gaussian", gauss}, {"piecewise", NewPiecewise(b)}} {
			for _, metered := range []bool{false, true} {
				for _, eps := range []float64{0, 0.7, 5} {
					name := fmt.Sprintf("%s/attrs=%d/metered=%v/eps=%g", tc.kind, attrs, metered, eps)
					t.Run(name, func(t *testing.T) {
						mech, calls := tc.inner, 0
						if metered {
							mech = Metered(tc.inner, func(e float64, records int) {
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
							want := copyingPerturb(tc.kind, b, delta, ref, record, eps)
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
}
