package market

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"share/internal/stat"
)

func TestIntegerAllocationExactCases(t *testing.T) {
	cases := []struct {
		name string
		chi  []float64
		n    int
		want []int
	}{
		{"even split", []float64{1, 1, 1, 1}, 8, []int{2, 2, 2, 2}},
		{"proportional", []float64{1, 3}, 8, []int{2, 6}},
		{"remainders to largest frac", []float64{1.5, 1.5, 1}, 4, []int{2, 1, 1}},
		{"zero n", []float64{1, 2}, 0, []int{0, 0}},
		{"all zero chi", []float64{0, 0}, 5, []int{0, 0}},
		{"single seller", []float64{3.7}, 10, []int{10}},
		{"negative chi ignored", []float64{-1, 2}, 4, []int{0, 4}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := IntegerAllocation(c.chi, c.n)
			if len(got) != len(c.want) {
				t.Fatalf("length %d, want %d", len(got), len(c.want))
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Errorf("alloc = %v, want %v", got, c.want)
					break
				}
			}
		})
	}
}

// Properties: the integer allocation always sums to n (when any χ is
// positive), never goes negative, and stays within 1 of the exact fractional
// share.
func TestIntegerAllocationProperties(t *testing.T) {
	prop := func(seed int64) bool {
		rng := stat.NewRand(seed)
		m := 1 + rng.Intn(50)
		n := rng.Intn(10_000)
		chi := make([]float64, m)
		anyPositive := false
		for i := range chi {
			chi[i] = rng.Float64() * 100
			if chi[i] > 0 {
				anyPositive = true
			}
		}
		got := IntegerAllocation(chi, n)
		total := 0
		var chiSum float64
		for _, c := range chi {
			if c > 0 {
				chiSum += c
			}
		}
		for i, g := range got {
			if g < 0 {
				return false
			}
			total += g
			if chiSum > 0 && chi[i] > 0 {
				exact := chi[i] * float64(n) / chiSum
				if math.Abs(float64(g)-exact) > 1+1e-9 {
					return false
				}
			}
		}
		if !anyPositive || n == 0 {
			return total == 0
		}
		return total == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// sliceStableAllocation is IntegerAllocation as it was written before its
// remainder pass moved into round scratch: a fresh remainder slice ordered
// by sort.SliceStable. It is the oracle for the scratch form.
func sliceStableAllocation(chi []float64, n int) []int {
	out := make([]int, len(chi))
	if n <= 0 || len(chi) == 0 {
		return out
	}
	var total float64
	for _, c := range chi {
		if c > 0 {
			total += c
		}
	}
	if total <= 0 {
		return out
	}
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, 0, len(chi))
	assigned := 0
	for i, c := range chi {
		if c <= 0 {
			continue
		}
		scaled := c * float64(n) / total
		fl := math.Floor(scaled)
		out[i] = int(fl)
		assigned += out[i]
		rems = append(rems, rem{idx: i, frac: scaled - fl})
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for k := 0; assigned < n && k < len(rems); k++ {
		out[rems[k].idx]++
		assigned++
	}
	for i := 0; assigned < n && len(rems) > 0; i = (i + 1) % len(rems) {
		out[rems[i].idx]++
		assigned++
	}
	return out
}

// TestAllocatePiecesMatchesSliceStable: the scratch remainder pass, run
// into a reused output and remainder slice, gives exactly what the
// sort.SliceStable form gave, over generated χ full of exact ties (values
// drawn from a few multiples of a quarter, so many fractional parts are
// equal), zeros and negatives, at n from 0 up.
func TestAllocatePiecesMatchesSliceStable(t *testing.T) {
	rng := stat.NewRand(30)
	var rems []remainder
	out := make([]int, 0, 64)
	for trial := 0; trial < 5000; trial++ {
		m := rng.Intn(40)
		chi := make([]float64, m)
		for i := range chi {
			switch r := rng.Intn(10); {
			case r == 0:
				chi[i] = 0
			case r == 1:
				chi[i] = -float64(rng.Intn(8)) / 4
			case r < 7:
				chi[i] = float64(1+rng.Intn(12)) / 4
			default:
				chi[i] = rng.Float64() * 50
			}
		}
		n := rng.Intn(3 * (m + 1))
		if trial%5 == 0 {
			n = rng.Intn(100_000)
		}
		want := sliceStableAllocation(chi, n)
		out = out[:m]
		for i := range out {
			out[i] = -7 // every entry must be written
		}
		rems = allocatePieces(out, chi, n, rems)
		if !slices.Equal(out, want) {
			t.Fatalf("trial %d: χ=%v n=%d: scratch pass %v, sort.SliceStable form %v", trial, chi, n, out, want)
		}
		if got := IntegerAllocation(chi, n); !slices.Equal(got, want) {
			t.Fatalf("trial %d: χ=%v n=%d: IntegerAllocation %v, sort.SliceStable form %v", trial, chi, n, got, want)
		}
	}
}
