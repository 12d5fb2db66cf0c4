package product

import (
	"math"
	"testing"

	"share/internal/dataset"
	"share/internal/stat"
)

func ccppSplit(t *testing.T, n int, seed int64) (train, test *dataset.Dataset) {
	t.Helper()
	rng := stat.NewRand(seed)
	full := dataset.SyntheticCCPP(n, rng)
	return full.Split(n * 4 / 5)
}

func TestOLSBuildMatchesExpectedQuality(t *testing.T) {
	train, test := ccppSplit(t, 3000, 1)
	rep, err := OLS{}.Build(train, test)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if rep.Performance < 0.9 || rep.Performance > 0.97 {
		t.Errorf("OLS performance = %v, want ≈0.93", rep.Performance)
	}
	for _, key := range []string{"explained_variance", "r2", "mse", "rmse", "mae"} {
		if _, ok := rep.Detail[key]; !ok {
			t.Errorf("missing detail %q", key)
		}
	}
	if (OLS{}).Name() == "" {
		t.Error("empty name")
	}
}

func TestOLSBuildDegenerateInputs(t *testing.T) {
	train, test := ccppSplit(t, 500, 2)
	if _, err := (OLS{}).Build(train, &dataset.Dataset{}); err == nil {
		t.Error("accepted an empty test set")
	}
	rep, err := OLS{}.Build(&dataset.Dataset{}, test)
	if err != nil {
		t.Fatalf("empty train should score 0, not error: %v", err)
	}
	if rep.Performance != 0 {
		t.Errorf("empty-train performance = %v", rep.Performance)
	}
}

func TestMeanVectorPerfectOnCleanData(t *testing.T) {
	train, test := ccppSplit(t, 4000, 3)
	rep, err := MeanVector{}.Build(train, test)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Same-distribution means: near-perfect fidelity.
	if rep.Performance < 0.95 {
		t.Errorf("clean mean-vector performance = %v", rep.Performance)
	}
}

func TestMeanVectorDetectsBias(t *testing.T) {
	train, test := ccppSplit(t, 2000, 4)
	// Shift every feature massively: estimated means are far off.
	biased := train.Clone()
	for j := range biased.X {
		biased.X[j] += 1000
	}
	clean, err := MeanVector{}.Build(train, test)
	if err != nil {
		t.Fatal(err)
	}
	shifted, err := MeanVector{}.Build(biased, test)
	if err != nil {
		t.Fatal(err)
	}
	if shifted.Performance >= clean.Performance {
		t.Errorf("biased purchase scored %v ≥ clean %v", shifted.Performance, clean.Performance)
	}
}

func TestMeanVectorShapeMismatch(t *testing.T) {
	train, test := ccppSplit(t, 500, 5)
	narrow, err := dataset.FromRows([][]float64{{1}}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (MeanVector{}).Build(narrow, test); err == nil {
		t.Error("accepted mismatched feature counts")
	}
	_ = train
}

func TestLogisticSeparatesLinearClasses(t *testing.T) {
	rng := stat.NewRand(6)
	mk := func(n int) *dataset.Dataset {
		d := &dataset.Dataset{Features: []string{"x1", "x2"}, Target: "y"}
		for i := 0; i < n; i++ {
			x1 := stat.Uniform(rng, -3, 3)
			x2 := stat.Uniform(rng, -3, 3)
			// Continuous target whose sign region is linearly separable
			// with margin noise.
			y := 2*x1 - x2 + stat.Gaussian(rng, 0, 0.3)
			d.X = append(d.X, x1, x2)
			d.Y = append(d.Y, y)
		}
		return d
	}
	train, test := mk(800), mk(400)
	rep, err := Logistic{Threshold: 0}.Build(train, test)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if rep.Performance < 0.9 {
		t.Errorf("logistic accuracy = %v on a near-separable task", rep.Performance)
	}
	if rep.Detail["logloss"] <= 0 {
		t.Errorf("logloss = %v", rep.Detail["logloss"])
	}
}

func TestLogisticCCPPMedianSplit(t *testing.T) {
	train, test := ccppSplit(t, 3000, 7)
	thr := MedianThreshold(train)
	rep, err := Logistic{Threshold: thr}.Build(train, test)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// The CCPP relationship is strongly linear; the classifier should beat
	// the ~0.5 base rate decisively.
	if rep.Performance < 0.85 {
		t.Errorf("CCPP classification accuracy = %v", rep.Performance)
	}
	if br := rep.Detail["base_rate"]; br < 0.35 || br > 0.65 {
		t.Errorf("median split base rate = %v, want ≈0.5", br)
	}
}

func TestLogisticDegenerateSingleClass(t *testing.T) {
	// All targets above threshold → single-class purchase → constant
	// classifier scored honestly.
	train, err := dataset.FromRows([][]float64{{1}, {2}, {3}}, []float64{10, 11, 12})
	if err != nil {
		t.Fatal(err)
	}
	test, err := dataset.FromRows([][]float64{{1}, {2}, {3}, {4}}, []float64{10, 11, -5, -6})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Logistic{Threshold: 0}.Build(train, test)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if rep.Detail["degenerate"] != 1 {
		t.Error("degenerate flag not set")
	}
	if math.Abs(rep.Performance-0.5) > 1e-12 {
		t.Errorf("constant classifier accuracy = %v, want 0.5", rep.Performance)
	}
}

func TestFitLogisticValidation(t *testing.T) {
	rows := func(x [][]float64) *dataset.Dataset {
		d, err := dataset.FromRows(x, make([]float64, len(x)))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if _, err := FitLogistic(nil, nil, 0, 0); err == nil {
		t.Error("accepted empty input")
	}
	if _, err := FitLogistic(rows([][]float64{{1}, {2}}), []float64{0, 1, 1}, 0, 0); err == nil {
		t.Error("accepted more labels than rows")
	}
	if _, err := FitLogistic(&dataset.Dataset{X: []float64{1, 2, 3}, Y: []float64{0, 1}}, []float64{0, 1}, 0, 0); err == nil {
		t.Error("accepted a feature block that does not fill its rows")
	}
	if _, err := FitLogistic(rows([][]float64{{1}}), []float64{0.5}, 0, 0); err == nil {
		t.Error("accepted a non-binary label")
	}
	if _, err := FitLogistic(rows([][]float64{{1}, {2}}), []float64{1, 1}, 0, 0); err == nil {
		t.Error("accepted a single-class sample")
	}
}

func TestFitLogisticRecoversDecisionBoundary(t *testing.T) {
	rng := stat.NewRand(8)
	var x [][]float64
	var y []float64
	for i := 0; i < 2000; i++ {
		v := stat.Uniform(rng, -4, 4)
		x = append(x, []float64{v})
		// True boundary at v = 1.
		if v > 1 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	d, err := dataset.FromRows(x, y)
	if err != nil {
		t.Fatal(err)
	}
	m, err := FitLogistic(d, y, 50, 1e-6)
	if err != nil {
		t.Fatalf("FitLogistic: %v", err)
	}
	// Decision boundary: intercept + coef·v = 0 → v = −intercept/coef ≈ 1.
	boundary := -m.Intercept / m.Coef[0]
	if math.Abs(boundary-1) > 0.1 {
		t.Errorf("boundary = %v, want ≈1", boundary)
	}
	if m.Prob([]float64{3}) < 0.95 || m.Prob([]float64{-3}) > 0.05 {
		t.Error("probabilities not saturating away from the boundary")
	}
}

func TestMedianThreshold(t *testing.T) {
	d := &dataset.Dataset{Y: []float64{5, 1, 3}}
	d.X = []float64{0, 0, 0}
	if got := MedianThreshold(d); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := MedianThreshold(&dataset.Dataset{}); got != 0 {
		t.Errorf("empty median = %v", got)
	}
	// Input must not be reordered.
	if d.Y[0] != 5 {
		t.Error("MedianThreshold mutated the dataset")
	}
}

func TestRidgeBuild(t *testing.T) {
	train, test := ccppSplit(t, 3000, 40)
	rep, err := Ridge{Alpha: 1}.Build(train, test)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if rep.Performance < 0.9 {
		t.Errorf("ridge performance = %v on clean CCPP", rep.Performance)
	}
	if rep.Detail["alpha"] != 1 {
		t.Error("alpha not recorded")
	}
	// Heavy regularization hurts on clean data.
	heavy, err := Ridge{Alpha: 1e9}.Build(train, test)
	if err != nil {
		t.Fatal(err)
	}
	if heavy.Performance >= rep.Performance {
		t.Errorf("huge α scored %v ≥ moderate %v", heavy.Performance, rep.Performance)
	}
	if _, err := (Ridge{Alpha: -1}).Build(train, test); err == nil {
		t.Error("accepted negative alpha")
	}
	empty, err := Ridge{Alpha: 1}.Build(&dataset.Dataset{}, test)
	if err != nil || empty.Performance != 0 {
		t.Errorf("empty train: %+v, %v", empty, err)
	}
}

func TestByName(t *testing.T) {
	ref, _ := ccppSplit(t, 200, 41)
	for _, tc := range []struct {
		name string
		want Builder
	}{
		{"", OLS{}},
		{"ols", OLS{}},
		{"ridge", Ridge{Alpha: 1}},
		{"logistic", Logistic{Threshold: MedianThreshold(ref)}},
		{"mean", MeanVector{}},
		{"histogram", Histogram{}},
	} {
		got, err := ByName(tc.name, ref)
		if err != nil {
			t.Errorf("ByName(%q): %v", tc.name, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ByName(%q) = %#v, want %#v", tc.name, got, tc.want)
		}
	}
	_, err := ByName("nope", ref)
	if want := `unknown product "nope" (want ols|ridge|logistic|mean|histogram)`; err == nil || err.Error() != want {
		t.Errorf("ByName(\"nope\") error = %v, want %q", err, want)
	}
}
