package nash

import (
	"math"
	"testing"
	"testing/quick"

	"share/internal/stat"
)

// TestCournotDuopoly checks the solver on the textbook Cournot game:
// profit_i = q_i·(a − q₁ − q₂) − c·q_i with equilibrium q_i = (a−c)/3.
func TestCournotDuopoly(t *testing.T) {
	a, c := 12.0, 3.0
	g := &Game{
		Players: 2,
		Lo:      []float64{0, 0},
		Hi:      []float64{12, 12},
		Payoff: func(i int, x float64, s []float64) float64 {
			other := s[1-i]
			return x*(a-x-other) - c*x
		},
	}
	res, err := g.Solve(Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want := (a - c) / 3
	for i, q := range res.Strategies {
		if math.Abs(q-want) > 1e-6 {
			t.Errorf("Cournot q[%d] = %v, want %v", i, q, want)
		}
	}
	if res.Residual > 1e-8 {
		t.Errorf("equilibrium residual = %v", res.Residual)
	}
}

// TestCournotNPlayer generalizes: with n symmetric firms, q_i = (a−c)/(n+1).
func TestCournotNPlayer(t *testing.T) {
	a, c := 20.0, 2.0
	for _, n := range []int{3, 5, 10} {
		g := &Game{
			Players: n,
			Hi:      constSlice(n, 20),
			Payoff: func(i int, x float64, s []float64) float64 {
				total := x
				for j, q := range s {
					if j != i {
						total += q
					}
				}
				return x*(a-total) - c*x
			},
		}
		res, err := g.Solve(Options{})
		if err != nil {
			t.Fatalf("Solve n=%d: %v", n, err)
		}
		want := (a - c) / float64(n+1)
		for i, q := range res.Strategies {
			if math.Abs(q-want) > 1e-5 {
				t.Errorf("n=%d: q[%d] = %v, want %v", n, i, q, want)
			}
		}
	}
}

// TestDominantStrategy: when payoffs are separable the equilibrium is each
// player's individual maximum.
func TestDominantStrategy(t *testing.T) {
	peaks := []float64{0.2, 0.5, 0.9}
	g := &Game{
		Players: 3,
		Payoff: func(i int, x float64, s []float64) float64 {
			return -(x - peaks[i]) * (x - peaks[i])
		},
	}
	res, err := g.Solve(Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	for i, want := range peaks {
		if math.Abs(res.Strategies[i]-want) > 1e-7 {
			t.Errorf("strategy[%d] = %v, want %v", i, res.Strategies[i], want)
		}
	}
}

// TestBoundaryEquilibrium: payoff increasing in own strategy → everyone at
// the upper bound.
func TestBoundaryEquilibrium(t *testing.T) {
	g := &Game{
		Players: 4,
		Payoff: func(i int, x float64, s []float64) float64 {
			return x // strictly increasing
		},
	}
	res, err := g.Solve(Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	for i, q := range res.Strategies {
		if math.Abs(q-1) > 1e-6 {
			t.Errorf("strategy[%d] = %v, want 1 (boundary)", i, q)
		}
	}
}

func TestSolveValidation(t *testing.T) {
	if _, err := (&Game{Players: 0}).Solve(Options{}); err == nil {
		t.Error("accepted zero players")
	}
	if _, err := (&Game{Players: 2}).Solve(Options{}); err == nil {
		t.Error("accepted nil payoff")
	}
	g := &Game{Players: 2, Lo: []float64{0}, Payoff: func(int, float64, []float64) float64 { return 0 }}
	if _, err := g.Solve(Options{}); err == nil {
		t.Error("accepted mismatched bounds")
	}
	g = &Game{Players: 1, Lo: []float64{1}, Hi: []float64{1}, Payoff: func(int, float64, []float64) float64 { return 0 }}
	if _, err := g.Solve(Options{}); err == nil {
		t.Error("accepted empty strategy space")
	}
	g = &Game{Players: 2, Payoff: func(int, float64, []float64) float64 { return 0 }}
	if _, err := g.Solve(Options{Start: []float64{0.5}}); err == nil {
		t.Error("accepted wrong-length start profile")
	}
}

// Property: on random symmetric concave games, all players converge to the
// same strategy and no profitable deviation remains.
func TestSymmetricGameProperty(t *testing.T) {
	rng := stat.NewRand(5)
	prop := func(seed int64) bool {
		r := stat.NewRand(seed)
		n := 2 + r.Intn(5)
		a := 5 + r.Float64()*10
		b := 0.5 + r.Float64()
		g := &Game{
			Players: n,
			Hi:      constSlice(n, a),
			Payoff: func(i int, x float64, s []float64) float64 {
				var others float64
				for j, q := range s {
					if j != i {
						others += q
					}
				}
				return x*(a-b*others) - x*x
			},
		}
		res, err := g.Solve(Options{})
		if err != nil {
			return false
		}
		for _, q := range res.Strategies[1:] {
			if math.Abs(q-res.Strategies[0]) > 1e-5 {
				return false
			}
		}
		return res.Residual < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func constSlice(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}
