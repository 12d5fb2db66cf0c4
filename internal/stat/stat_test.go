package stat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLaplaceMomentsMatchDistribution(t *testing.T) {
	rng := NewRand(42)
	const n = 200_000
	mu, b := 1.5, 2.0
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := Laplace(rng, mu, b)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-mu) > 0.05 {
		t.Errorf("Laplace mean = %v, want %v", mean, mu)
	}
	// Var = 2b² = 8.
	if math.Abs(variance-8) > 0.3 {
		t.Errorf("Laplace variance = %v, want 8", variance)
	}
}

func TestLaplaceSymmetry(t *testing.T) {
	rng := NewRand(7)
	const n = 100_000
	above := 0
	for i := 0; i < n; i++ {
		if Laplace(rng, 0, 1) > 0 {
			above++
		}
	}
	frac := float64(above) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("Laplace positive fraction = %v, want 0.5", frac)
	}
}

func TestGaussianMoments(t *testing.T) {
	rng := NewRand(11)
	const n = 200_000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := Gaussian(rng, 3, 2)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-3) > 0.03 {
		t.Errorf("Gaussian mean = %v, want 3", mean)
	}
	if math.Abs(variance-4) > 0.1 {
		t.Errorf("Gaussian variance = %v, want 4", variance)
	}
}

func TestUniformRange(t *testing.T) {
	rng := NewRand(5)
	for i := 0; i < 10_000; i++ {
		x := Uniform(rng, -2, 5)
		if x < -2 || x >= 5 {
			t.Fatalf("Uniform(-2,5) produced %v", x)
		}
	}
}

func TestUniformOpenExcludesLowerEndpoint(t *testing.T) {
	rng := NewRand(5)
	for i := 0; i < 10_000; i++ {
		if x := UniformOpen(rng, 0, 1); x == 0 {
			t.Fatal("UniformOpen returned the open endpoint")
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	rng := NewRand(3)
	prop := func(seed int64) bool {
		n := int(seed%20) + 1
		if n < 0 {
			n = -n + 1
		}
		p := Perm(rng, n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestShuffleUniformity(t *testing.T) {
	// Chi-square style sanity: each element lands in each position roughly
	// uniformly over many shuffles.
	rng := NewRand(17)
	const trials = 60_000
	counts := [3][3]int{}
	for tr := 0; tr < trials; tr++ {
		xs := []int{0, 1, 2}
		Shuffle(rng, xs)
		for pos, v := range xs {
			counts[v][pos]++
		}
	}
	want := float64(trials) / 3
	for v := range counts {
		for pos := range counts[v] {
			got := float64(counts[v][pos])
			if math.Abs(got-want)/want > 0.05 {
				t.Errorf("element %d at position %d: count %v, want ≈%v", v, pos, got, want)
			}
		}
	}
}

func TestSeededReproducibility(t *testing.T) {
	a, b := NewRand(123), NewRand(123)
	for i := 0; i < 100; i++ {
		if Laplace(a, 0, 1) != Laplace(b, 0, 1) {
			t.Fatal("same seed diverged")
		}
	}
}
