package regress

import (
	"math"
	"testing"
	"testing/quick"

	"share/internal/dataset"
	"share/internal/stat"
)

func linearData(n int, seed int64, noise float64) *dataset.Dataset {
	rng := stat.NewRand(seed)
	d := &dataset.Dataset{Features: []string{"x1", "x2"}, Target: "y"}
	for i := 0; i < n; i++ {
		x1 := stat.Uniform(rng, -5, 5)
		x2 := stat.Uniform(rng, 0, 10)
		y := 3 + 2*x1 - 0.5*x2 + stat.Gaussian(rng, 0, noise)
		d.X = append(d.X, x1, x2)
		d.Y = append(d.Y, y)
	}
	return d
}

func TestFitRecoversCoefficients(t *testing.T) {
	d := linearData(500, 1, 0)
	m, err := Fit(d)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if math.Abs(m.Intercept-3) > 1e-8 {
		t.Errorf("intercept = %v, want 3", m.Intercept)
	}
	if math.Abs(m.Coef[0]-2) > 1e-8 || math.Abs(m.Coef[1]+0.5) > 1e-8 {
		t.Errorf("coefficients = %v, want [2 -0.5]", m.Coef)
	}
}

func TestFitRejectsEmptyAndInvalid(t *testing.T) {
	if _, err := Fit(&dataset.Dataset{}); err == nil {
		t.Error("Fit accepted an empty dataset")
	}
	bad := &dataset.Dataset{X: []float64{1}, Y: []float64{1, 2}}
	if _, err := Fit(bad); err == nil {
		t.Error("Fit accepted an inconsistent dataset")
	}
}

func TestFitFewerRowsThanFeatures(t *testing.T) {
	// 1 row, 2 features: rank-deficient; ridge fallback must succeed.
	d, err := dataset.FromRows([][]float64{{1, 2}}, []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Fit(d)
	if err != nil {
		t.Fatalf("Fit on underdetermined data: %v", err)
	}
	if pred := m.Predict([]float64{1, 2}); math.Abs(pred-5) > 0.1 {
		t.Errorf("underdetermined fit should interpolate its one row: pred = %v", pred)
	}
}

func TestEvaluatePerfectFit(t *testing.T) {
	d := linearData(200, 3, 0)
	m, _ := Fit(d)
	met, err := Evaluate(m, d)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if met.R2 < 1-1e-10 || met.ExplainedVariance < 1-1e-10 {
		t.Errorf("perfect fit: R²=%v EV=%v, want 1", met.R2, met.ExplainedVariance)
	}
	if met.MSE > 1e-12 || met.RMSE > 1e-6 || met.MAE > 1e-6 {
		t.Errorf("perfect fit errors nonzero: %+v", met)
	}
}

func TestEvaluateNoisyFitReasonable(t *testing.T) {
	train := linearData(1000, 4, 1.0)
	test := linearData(500, 5, 1.0)
	m, _ := Fit(train)
	met, err := Evaluate(m, test)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	// Signal variance ≈ var(2x1) + var(0.5x2) = 4·(100/12) + 0.25·(100/12)
	// ≈ 35.4; noise variance 1 → EV ≈ 0.97.
	if met.ExplainedVariance < 0.9 || met.ExplainedVariance > 1 {
		t.Errorf("EV = %v, want ≈0.97", met.ExplainedVariance)
	}
	if met.RMSE < 0.8 || met.RMSE > 1.3 {
		t.Errorf("RMSE = %v, want ≈1", met.RMSE)
	}
	if math.Abs(met.RMSE*met.RMSE-met.MSE) > 1e-9 {
		t.Error("RMSE² != MSE")
	}
}

func TestEvaluateConstantTarget(t *testing.T) {
	d, err := dataset.FromRows([][]float64{{1}, {2}, {3}}, []float64{7, 7, 7})
	if err != nil {
		t.Fatal(err)
	}
	m := &Model{Intercept: 7}
	met, err := Evaluate(m, d)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if met.R2 != 0 || met.ExplainedVariance != 0 {
		t.Errorf("constant target should yield 0 scores, got %+v", met)
	}
	if _, err := Evaluate(m, &dataset.Dataset{}); err == nil {
		t.Error("Evaluate accepted an empty test set")
	}
}

func TestExplainedVarianceHelperNeverErrors(t *testing.T) {
	test := linearData(50, 6, 0.5)
	if v := ExplainedVariance(&dataset.Dataset{}, test); v != 0 {
		t.Errorf("EV on empty train = %v, want 0", v)
	}
	train := linearData(100, 7, 0.5)
	if v := ExplainedVariance(train, test); v < 0.8 {
		t.Errorf("EV = %v, want high", v)
	}
}

func TestSyntheticCCPPReachesPaperEV(t *testing.T) {
	// The substitution contract (DESIGN.md §2): OLS on synthetic CCPP
	// reaches explained variance ≈ 0.93 like the real dataset.
	rng := stat.NewRand(8)
	full := dataset.SyntheticCCPP(0, rng)
	train, test := full.Split(9000)
	m, err := Fit(train)
	if err != nil {
		t.Fatalf("Fit CCPP: %v", err)
	}
	met, err := Evaluate(m, test)
	if err != nil {
		t.Fatalf("Evaluate CCPP: %v", err)
	}
	if met.ExplainedVariance < 0.90 || met.ExplainedVariance > 0.96 {
		t.Errorf("synthetic CCPP EV = %v, want ≈0.93 (calibration drifted)", met.ExplainedVariance)
	}
}

// Property: the incremental accumulator matches the batch fit on random
// datasets.
func TestIncrementalMatchesBatchProperty(t *testing.T) {
	prop := func(seed int64) bool {
		d := linearData(60, seed, 0.7)
		batch, err := Fit(d)
		if err != nil {
			return false
		}
		inc := NewIncremental(d.NumFeatures())
		inc.AddDataset(d)
		m, err := inc.Solve()
		if err != nil {
			return false
		}
		if math.Abs(m.Intercept-batch.Intercept) > 1e-6*(1+math.Abs(batch.Intercept)) {
			return false
		}
		for j := range m.Coef {
			if math.Abs(m.Coef[j]-batch.Coef[j]) > 1e-6*(1+math.Abs(batch.Coef[j])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestIncrementalResetAndN(t *testing.T) {
	inc := NewIncremental(2)
	if _, err := inc.Solve(); err == nil {
		t.Error("Solve on empty accumulator should error")
	}
	inc.Add([]float64{1, 2}, 3)
	inc.Add([]float64{2, 1}, 4)
	if inc.n != 2 {
		t.Errorf("N = %d, want 2", inc.n)
	}
	inc.Reset()
	if inc.n != 0 {
		t.Errorf("N after reset = %d", inc.n)
	}
	if _, err := inc.Solve(); err == nil {
		t.Error("Solve after reset should error")
	}
}

func TestIncrementalSingleRow(t *testing.T) {
	inc := NewIncremental(2)
	inc.Add([]float64{1, 1}, 10)
	m, err := inc.Solve()
	if err != nil {
		t.Fatalf("Solve on one row: %v", err)
	}
	if pred := m.Predict([]float64{1, 1}); math.Abs(pred-10) > 0.5 {
		t.Errorf("single-row model should fit its row: pred = %v", pred)
	}
}
