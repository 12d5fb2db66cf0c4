package valuation

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"share/internal/stat"
)

// The generic Shapley estimators below are reference implementations for
// the tests: Exact enumerates every coalition, and MonteCarlo samples
// permutations of an arbitrary utility. The production estimators in this
// package are checked against them.

// Utility evaluates a coalition, given as a set of player indices in
// ascending order. Implementations must be deterministic for a fixed
// coalition within one Shapley computation; the empty coalition must be
// valid.
type Utility func(coalition []int) float64

// Exact computes exact Shapley values for m players by full subset
// enumeration, evaluating the utility once per subset (2^m evaluations) and
// distributing marginals per Def. 3.2. m must be at most 30.
func Exact(m int, u Utility) ([]float64, error) {
	if m <= 0 {
		return nil, fmt.Errorf("shapley: invalid player count %d", m)
	}
	if m > 30 {
		return nil, fmt.Errorf("shapley: %d players is too many for exact computation (max 30)", m)
	}
	// Cache every subset's utility keyed by bitmask.
	vals := make([]float64, 1<<uint(m))
	buf := make([]int, 0, m)
	for mask := 0; mask < len(vals); mask++ {
		buf = buf[:0]
		for i := 0; i < m; i++ {
			if mask&(1<<uint(i)) != 0 {
				buf = append(buf, i)
			}
		}
		vals[mask] = u(buf)
	}
	// SVᵢ = Σ_{S ∌ i} |S|!·(m−1−|S|)!/m! · (v(S∪{i}) − v(S)).
	fact := make([]float64, m+1)
	fact[0] = 1
	for i := 1; i <= m; i++ {
		fact[i] = fact[i-1] * float64(i)
	}
	sv := make([]float64, m)
	for i := 0; i < m; i++ {
		bit := 1 << uint(i)
		for mask := 0; mask < len(vals); mask++ {
			if mask&bit != 0 {
				continue
			}
			s := bits.OnesCount(uint(mask))
			w := fact[s] * fact[m-1-s] / fact[m]
			sv[i] += w * (vals[mask|bit] - vals[mask])
		}
	}
	return sv, nil
}

// MonteCarlo estimates Shapley values with the permutation-sampling
// estimator: for each of `permutations` random orderings it scans players in
// order, crediting each with the marginal utility of joining the running
// coalition. The estimate is unbiased; its standard error shrinks as
// 1/√permutations.
func MonteCarlo(m int, u Utility, permutations int, rng *rand.Rand) ([]float64, error) {
	if m <= 0 {
		return nil, fmt.Errorf("shapley: invalid player count %d", m)
	}
	if permutations <= 0 {
		return nil, fmt.Errorf("shapley: invalid permutation count %d", permutations)
	}
	if rng == nil {
		return nil, errors.New("shapley: nil random source")
	}
	empty := u(nil)
	sv := make([]float64, m)
	coalition := make([]int, 0, m)
	sorted := make([]int, 0, m)
	for p := 0; p < permutations; p++ {
		coalition = coalition[:0]
		prev := empty
		for _, player := range stat.Perm(rng, m) {
			coalition = append(coalition, player)
			sorted = append(sorted[:0], coalition...)
			sort.Ints(sorted)
			cur := u(sorted)
			sv[player] += cur - prev
			prev = cur
		}
	}
	inv := 1 / float64(permutations)
	for i := range sv {
		sv[i] *= inv
	}
	return sv, nil
}

// additiveUtility returns a utility where each player contributes a fixed
// amount independently — Shapley values equal the contributions exactly.
func additiveUtility(contrib []float64) Utility {
	return func(coalition []int) float64 {
		var s float64
		for _, i := range coalition {
			s += contrib[i]
		}
		return s
	}
}

func TestExactAdditiveGame(t *testing.T) {
	contrib := []float64{1, 2, 3, 4}
	sv, err := Exact(4, additiveUtility(contrib))
	if err != nil {
		t.Fatalf("Exact: %v", err)
	}
	for i, want := range contrib {
		if math.Abs(sv[i]-want) > 1e-12 {
			t.Errorf("SV[%d] = %v, want %v", i, sv[i], want)
		}
	}
}

func TestExactGloveGame(t *testing.T) {
	// Classic glove game: players 0,1 own left gloves, player 2 a right
	// glove; a pair is worth 1. Known Shapley values: (1/6, 1/6, 2/3).
	u := func(coalition []int) float64 {
		var left, right int
		for _, p := range coalition {
			if p == 2 {
				right++
			} else {
				left++
			}
		}
		if left >= 1 && right >= 1 {
			return 1
		}
		return 0
	}
	sv, err := Exact(3, u)
	if err != nil {
		t.Fatalf("Exact: %v", err)
	}
	want := []float64{1.0 / 6, 1.0 / 6, 2.0 / 3}
	for i := range want {
		if math.Abs(sv[i]-want[i]) > 1e-12 {
			t.Errorf("glove SV[%d] = %v, want %v", i, sv[i], want[i])
		}
	}
}

func TestExactRejectsBadInput(t *testing.T) {
	if _, err := Exact(0, additiveUtility(nil)); err == nil {
		t.Error("Exact accepted zero players")
	}
	if _, err := Exact(31, additiveUtility(make([]float64, 31))); err == nil {
		t.Error("Exact accepted 31 players")
	}
}

// Efficiency axiom: Shapley values sum to v(grand) − v(∅).
func TestExactEfficiencyProperty(t *testing.T) {
	rng := stat.NewRand(1)
	prop := func(seed int64) bool {
		r := stat.NewRand(seed)
		m := 2 + r.Intn(6)
		// Random supermodular-ish utility: value of a coalition is a random
		// but fixed function of its bitmask.
		vals := make([]float64, 1<<uint(m))
		for i := range vals {
			vals[i] = r.Float64() * 10
		}
		vals[0] = r.Float64() // arbitrary v(∅)
		u := func(coalition []int) float64 {
			mask := 0
			for _, p := range coalition {
				mask |= 1 << uint(p)
			}
			return vals[mask]
		}
		sv, err := Exact(m, u)
		if err != nil {
			return false
		}
		var total float64
		for _, v := range sv {
			total += v
		}
		want := vals[len(vals)-1] - vals[0]
		return math.Abs(total-want) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Symmetry axiom: interchangeable players receive equal values.
func TestExactSymmetry(t *testing.T) {
	// Players 0 and 1 are symmetric (both contribute 5); player 2
	// contributes 1.
	sv, err := Exact(3, additiveUtility([]float64{5, 5, 1}))
	if err != nil {
		t.Fatalf("Exact: %v", err)
	}
	if math.Abs(sv[0]-sv[1]) > 1e-12 {
		t.Errorf("symmetric players got %v and %v", sv[0], sv[1])
	}
}

// Null player axiom: a player who never changes the utility gets zero.
func TestExactNullPlayer(t *testing.T) {
	sv, err := Exact(4, additiveUtility([]float64{3, 0, 2, 7}))
	if err != nil {
		t.Fatalf("Exact: %v", err)
	}
	if math.Abs(sv[1]) > 1e-12 {
		t.Errorf("null player received %v", sv[1])
	}
}

func TestMonteCarloConvergesToExact(t *testing.T) {
	rng := stat.NewRand(42)
	u := func(coalition []int) float64 {
		// Superadditive: quadratic in coalition size plus member identity.
		var s float64
		for _, p := range coalition {
			s += float64(p + 1)
		}
		return s + float64(len(coalition)*len(coalition))
	}
	exact, err := Exact(5, u)
	if err != nil {
		t.Fatalf("Exact: %v", err)
	}
	mc, err := MonteCarlo(5, u, 20_000, rng)
	if err != nil {
		t.Fatalf("MonteCarlo: %v", err)
	}
	for i := range exact {
		if math.Abs(mc[i]-exact[i]) > 0.15 {
			t.Errorf("MC SV[%d] = %v, exact %v", i, mc[i], exact[i])
		}
	}
}

func TestMonteCarloEfficiency(t *testing.T) {
	// The permutation estimator preserves efficiency exactly per
	// permutation, hence exactly in the average.
	rng := stat.NewRand(7)
	contrib := []float64{2, 4, 6}
	u := additiveUtility(contrib)
	sv, err := MonteCarlo(3, u, 50, rng)
	if err != nil {
		t.Fatalf("MonteCarlo: %v", err)
	}
	var total float64
	for _, v := range sv {
		total += v
	}
	if math.Abs(total-12) > 1e-9 {
		t.Errorf("MC efficiency violated: sum = %v, want 12", total)
	}
}

func TestMonteCarloValidation(t *testing.T) {
	u := additiveUtility([]float64{1})
	if _, err := MonteCarlo(0, u, 10, stat.NewRand(1)); err == nil {
		t.Error("accepted zero players")
	}
	if _, err := MonteCarlo(1, u, 0, stat.NewRand(1)); err == nil {
		t.Error("accepted zero permutations")
	}
	if _, err := MonteCarlo(1, u, 10, nil); err == nil {
		t.Error("accepted nil rng")
	}
}

func TestNormalize(t *testing.T) {
	// normalize writes into a destination holding stale values, which
	// every entry must overwrite.
	normalize := func(sv ...float64) []float64 {
		out := make([]float64, len(sv))
		for i := range out {
			out[i] = math.NaN()
		}
		Normalize(out, sv)
		return out
	}
	// Ordering preserved, all positive, sums to 1.
	out := normalize(1, 3, 2)
	if !(out[1] > out[2] && out[2] > out[0]) {
		t.Errorf("Normalize lost ordering: %v", out)
	}
	var total float64
	for _, v := range out {
		if v <= 0 {
			t.Errorf("non-positive weight: %v", out)
		}
		total += v
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("Normalize sum = %v", total)
	}
	// Negative inputs still produce positive weights with order preserved.
	out = normalize(-5, 1)
	if out[0] <= 0 || out[1] <= out[0] {
		t.Errorf("Normalize on negatives = %v", out)
	}
	// Constant input degrades to uniform.
	out = normalize(-1, -1, -1)
	for _, v := range out {
		if math.Abs(v-1.0/3) > 1e-9 {
			t.Errorf("constant Normalize = %v, want uniform", out)
		}
	}
	// Tiny spreads still differentiate (no floor collapse): values a hair
	// apart must not normalize to uniform.
	out = normalize(1e-9, 3e-9)
	if math.Abs(out[1]-out[0]) < 0.1 {
		t.Errorf("tiny-spread Normalize collapsed: %v", out)
	}
	// An empty input writes nothing, into no destination.
	Normalize(nil, nil)
}
