package translog

import (
	"math"
	"testing"
	"testing/quick"

	"share/internal/stat"
)

func TestCostKnownValue(t *testing.T) {
	// With all σ = 0, C = exp(0) = 1 regardless of inputs.
	var p Params
	c, err := p.Cost(500, 0.8)
	if err != nil {
		t.Fatalf("Cost: %v", err)
	}
	if c != 1 {
		t.Errorf("zero-parameter cost = %v, want 1", c)
	}
	// Pure constant term.
	p = Params{Sigma0: 2}
	c, _ = p.Cost(10, 10)
	if math.Abs(c-math.Exp(2)) > 1e-12 {
		t.Errorf("constant cost = %v, want e²", c)
	}
}

func TestCostPaperDefaults(t *testing.T) {
	p := PaperDefaults()
	// Hand-computed: lnN = ln500 ≈ 6.2146, lnv = ln0.8 ≈ −0.22314.
	ln, lv := math.Log(500.0), math.Log(0.8)
	want := math.Exp(1e-3 - 2*ln - 3*lv + 0.5e-3*ln*ln + 1e-3*lv*lv + 1e-3*ln*lv)
	got, err := p.Cost(500, 0.8)
	if err != nil {
		t.Fatalf("Cost: %v", err)
	}
	if math.Abs(got-want) > 1e-12*want {
		t.Errorf("paper-default cost = %v, want %v", got, want)
	}
}

func TestCostRejectsNonPositive(t *testing.T) {
	p := PaperDefaults()
	if _, err := p.Cost(0, 1); err == nil {
		t.Error("Cost accepted N = 0")
	}
	if _, err := p.Cost(10, 0); err == nil {
		t.Error("Cost accepted v = 0")
	}
	if _, err := p.Cost(-5, 1); err == nil {
		t.Error("Cost accepted negative N")
	}
}

func TestMustCostPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCost did not panic on invalid input")
		}
	}()
	PaperDefaults().MustCost(0, 1)
}

func TestCostAlwaysPositive(t *testing.T) {
	prop := func(n, v float64) bool {
		n = 1 + math.Mod(math.Abs(n), 1e6)
		v = 0.01 + math.Mod(math.Abs(v), 10)
		c, err := PaperDefaults().Cost(n, v)
		return err == nil && c > 0 && !math.IsInf(c, 0)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestFitRecoversParameters(t *testing.T) {
	truth := Params{Sigma0: 0.5, Sigma1: -1.5, Sigma2: -2.5, Sigma3: 0.02, Sigma4: 0.03, Sigma5: 0.01}
	rng := stat.NewRand(13)
	var obs []Observation
	for i := 0; i < 200; i++ {
		n := stat.Uniform(rng, 50, 5000)
		v := stat.Uniform(rng, 0.1, 0.95)
		c, err := truth.Cost(n, v)
		if err != nil {
			t.Fatalf("generating observation: %v", err)
		}
		obs = append(obs, Observation{N: n, V: v, Cost: c})
	}
	got, err := Fit(obs)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	check := func(name string, g, w float64) {
		if math.Abs(g-w) > 1e-6*(1+math.Abs(w)) {
			t.Errorf("%s = %v, want %v", name, g, w)
		}
	}
	check("σ0", got.Sigma0, truth.Sigma0)
	check("σ1", got.Sigma1, truth.Sigma1)
	check("σ2", got.Sigma2, truth.Sigma2)
	check("σ3", got.Sigma3, truth.Sigma3)
	check("σ4", got.Sigma4, truth.Sigma4)
	check("σ5", got.Sigma5, truth.Sigma5)
	if rmse := FitError(got, obs); rmse > 1e-8 {
		t.Errorf("noise-free fit RMSE = %v", rmse)
	}
}

func TestFitWithNoise(t *testing.T) {
	truth := PaperDefaults()
	rng := stat.NewRand(17)
	var obs []Observation
	for i := 0; i < 500; i++ {
		n := stat.Uniform(rng, 100, 10000)
		v := stat.Uniform(rng, 0.2, 0.9)
		c, _ := truth.Cost(n, v)
		c *= math.Exp(stat.Gaussian(rng, 0, 0.05)) // 5% multiplicative noise
		obs = append(obs, Observation{N: n, V: v, Cost: c})
	}
	got, err := Fit(obs)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	// The big coefficients must be recovered to within a few percent.
	if math.Abs(got.Sigma1-truth.Sigma1) > 0.1 {
		t.Errorf("σ1 = %v, want ≈%v", got.Sigma1, truth.Sigma1)
	}
	if math.Abs(got.Sigma2-truth.Sigma2) > 0.1 {
		t.Errorf("σ2 = %v, want ≈%v", got.Sigma2, truth.Sigma2)
	}
	if rmse := FitError(got, obs); rmse > 0.1 {
		t.Errorf("fit RMSE = %v, want ≈ noise level 0.05", rmse)
	}
}

func TestFitValidation(t *testing.T) {
	if _, err := Fit(nil); err == nil {
		t.Error("Fit accepted no observations")
	}
	obs := make([]Observation, 6)
	for i := range obs {
		obs[i] = Observation{N: 100, V: 0.5, Cost: 1}
	}
	obs[3].Cost = -1
	if _, err := Fit(obs); err == nil {
		t.Error("Fit accepted a negative cost")
	}
}

func TestFitErrorEmptyObservations(t *testing.T) {
	if got := FitError(PaperDefaults(), nil); got != 0 {
		t.Errorf("FitError on empty = %v", got)
	}
}
