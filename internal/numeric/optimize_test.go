package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGoldenMaxQuadratic(t *testing.T) {
	f := func(x float64) float64 { return -(x - 3) * (x - 3) }
	got := GoldenMax(f, 0, 10, 0)
	if math.Abs(got-3) > 1e-8 {
		t.Errorf("GoldenMax = %v, want 3", got)
	}
}

func TestGoldenMaxBoundaryMaximum(t *testing.T) {
	// Monotone increasing: maximum at the right endpoint.
	got := GoldenMax(func(x float64) float64 { return x }, 0, 1, 0)
	if math.Abs(got-1) > 1e-8 {
		t.Errorf("GoldenMax of increasing f = %v, want 1", got)
	}
	// Monotone decreasing: maximum at the left endpoint.
	got = GoldenMax(func(x float64) float64 { return -x }, 0, 1, 0)
	if math.Abs(got) > 1e-8 {
		t.Errorf("GoldenMax of decreasing f = %v, want 0", got)
	}
}

func TestGoldenMaxSwappedInterval(t *testing.T) {
	f := func(x float64) float64 { return -(x - 2) * (x - 2) }
	got := GoldenMax(f, 5, 0, 0) // reversed bounds
	if math.Abs(got-2) > 1e-8 {
		t.Errorf("GoldenMax with swapped interval = %v, want 2", got)
	}
}

// Property: for a concave parabola with a vertex inside the interval,
// GoldenMax locates the vertex.
func TestGoldenMaxProperty(t *testing.T) {
	prop := func(v float64) bool {
		vertex := math.Mod(math.Abs(v), 8) + 1 // in [1, 9)
		f := func(x float64) float64 { return -(x - vertex) * (x - vertex) }
		got := GoldenMax(f, 0, 10, 1e-10)
		return math.Abs(got-vertex) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDerivativeKnownFunctions(t *testing.T) {
	cases := []struct {
		name string
		f    func(float64) float64
		x    float64
		want float64
	}{
		{"sin at 0", math.Sin, 0, 1},
		{"exp at 1", math.Exp, 1, math.E},
		{"x^2 at 3", func(x float64) float64 { return x * x }, 3, 6},
		{"log at 2", math.Log, 2, 0.5},
	}
	for _, c := range cases {
		got := Derivative(c.f, c.x, 0)
		if math.Abs(got-c.want) > 1e-6*(1+math.Abs(c.want)) {
			t.Errorf("Derivative(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ x, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 10, 0},
		{10, 0, 10, 10},
	}
	for _, c := range cases {
		if got := Clamp(c.x, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%g, %g, %g) = %g, want %g", c.x, c.lo, c.hi, got, c.want)
		}
	}
}

func TestLinspace(t *testing.T) {
	got := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if len(got) != len(want) {
		t.Fatalf("Linspace length = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("Linspace[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if got := Linspace(3, 7, 1); len(got) != 1 || got[0] != 3 {
		t.Errorf("Linspace n=1 = %v, want [3]", got)
	}
	if got := Linspace(0, 1, 0); got != nil {
		t.Errorf("Linspace n=0 = %v, want nil", got)
	}
}

func TestLinspaceEndpointsExact(t *testing.T) {
	got := Linspace(0.1, 0.9, 17)
	if got[0] != 0.1 || got[16] != 0.9 {
		t.Errorf("Linspace endpoints = %v, %v; want exact 0.1, 0.9", got[0], got[16])
	}
}

func TestLogspace(t *testing.T) {
	got := Logspace(1, 1000, 4)
	want := []float64{1, 10, 100, 1000}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*want[i] {
			t.Errorf("Logspace[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
