package regress

import (
	"math"
	"testing"

	"share/internal/dataset"
	"share/internal/stat"
)

// TestAddMomentsMatchesAddDataset: merging per-chunk moments must reproduce
// the row-by-row accumulator — same Gram, same Xᵀy, same solved model.
func TestAddMomentsMatchesAddDataset(t *testing.T) {
	rng := stat.NewRand(1)
	full := dataset.SyntheticCCPP(300, rng)
	chunks, err := dataset.PartitionEqual(full, 5)
	if err != nil {
		t.Fatal(err)
	}
	k := full.NumFeatures()

	rows := NewIncremental(k)
	merged := NewIncremental(k)
	for _, c := range chunks {
		rows.AddDataset(c)
		merged.AddMoments(DatasetMoments(c, k))
	}
	if rows.N() != merged.N() {
		t.Fatalf("row counts diverge: %d vs %d", rows.N(), merged.N())
	}
	mRows, err := rows.Solve()
	if err != nil {
		t.Fatal(err)
	}
	mMerged, err := merged.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// Coefficients pass through ridge-damped normal equations, so compare
	// at relative precision; the downstream quantity (explained variance)
	// is checked at the kernel's 1e-9 absolute bar.
	if d := math.Abs(mRows.Intercept - mMerged.Intercept); d > 1e-9*(1+math.Abs(mRows.Intercept)) {
		t.Errorf("intercepts diverge: %v vs %v", mRows.Intercept, mMerged.Intercept)
	}
	for j := range mRows.Coef {
		if d := math.Abs(mRows.Coef[j] - mMerged.Coef[j]); d > 1e-9*(1+math.Abs(mRows.Coef[j])) {
			t.Errorf("coef %d diverges: %v vs %v", j, mRows.Coef[j], mMerged.Coef[j])
		}
	}
	test := dataset.SyntheticCCPP(200, rng)
	em, err := NewEvalMoments(test)
	if err != nil {
		t.Fatal(err)
	}
	if evA, evB := em.ExplainedVariance(mRows), em.ExplainedVariance(mMerged); math.Abs(evA-evB) > 1e-9 {
		t.Errorf("explained variance diverges: %v vs %v", evA, evB)
	}
}

func TestAddMomentsEmptyChunkIsNoOp(t *testing.T) {
	inc := NewIncremental(3)
	inc.Add([]float64{1, 2, 3}, 4)
	before := inc.Moments()
	inc.AddMoments(DatasetMoments(&dataset.Dataset{}, 3))
	if inc.N() != 1 {
		t.Errorf("empty merge changed row count to %d", inc.N())
	}
	after := inc.Moments()
	for i := range before.gram.Data {
		if before.gram.Data[i] != after.gram.Data[i] {
			t.Fatalf("empty merge changed gram at %d", i)
		}
	}
}

func TestAddMomentsDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched merge did not panic")
		}
	}()
	NewIncremental(3).AddMoments(DatasetMoments(&dataset.Dataset{}, 4))
}

func TestMomentsSnapshotIsIndependent(t *testing.T) {
	inc := NewIncremental(2)
	inc.Add([]float64{1, 2}, 3)
	snap := inc.Moments()
	inc.Add([]float64{4, 5}, 6)
	if snap.N() != 1 {
		t.Errorf("snapshot row count tracked the accumulator: %d", snap.N())
	}
	fresh := NewIncremental(2)
	fresh.Add([]float64{1, 2}, 3)
	want := fresh.Moments()
	for i := range want.gram.Data {
		if snap.gram.Data[i] != want.gram.Data[i] {
			t.Fatalf("snapshot gram aliased the accumulator at %d", i)
		}
	}
}

// TestEvalMomentsMatchesEvaluate: the fused O(k²) scoring path must agree
// with the row-streaming Evaluate on both metrics, across good and terrible
// models.
func TestEvalMomentsMatchesEvaluate(t *testing.T) {
	rng := stat.NewRand(2)
	train := dataset.SyntheticCCPP(400, rng)
	test := dataset.SyntheticCCPP(250, rng)
	em, err := NewEvalMoments(test)
	if err != nil {
		t.Fatal(err)
	}
	good, err := Fit(train)
	if err != nil {
		t.Fatal(err)
	}
	bad := &Model{Intercept: 100, Coef: make([]float64, train.NumFeatures())}
	skew := &Model{Intercept: -3, Coef: []float64{2, -1, 0.5, 4}}
	for name, m := range map[string]*Model{"fitted": good, "constant": bad, "skewed": skew} {
		want, err := Evaluate(m, test)
		if err != nil {
			t.Fatal(err)
		}
		if got := em.ExplainedVariance(m); math.Abs(got-want.ExplainedVariance) > 1e-9 {
			t.Errorf("%s: EV %v via moments, %v streaming", name, got, want.ExplainedVariance)
		}
		if got := em.MSE(m); math.Abs(got-want.MSE) > 1e-6*(1+want.MSE) {
			t.Errorf("%s: MSE %v via moments, %v streaming", name, got, want.MSE)
		}
	}
}

func TestEvalMomentsConstantTarget(t *testing.T) {
	test, err := dataset.FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}}, []float64{7, 7, 7})
	if err != nil {
		t.Fatal(err)
	}
	em, err := NewEvalMoments(test)
	if err != nil {
		t.Fatal(err)
	}
	m := &Model{Intercept: 7, Coef: []float64{0, 0}}
	if ev := em.ExplainedVariance(m); ev != 0 {
		t.Errorf("constant-target EV = %v, want 0 (Evaluate's convention)", ev)
	}
}

func TestEvalMomentsRejectsEmptyTestSet(t *testing.T) {
	if _, err := NewEvalMoments(&dataset.Dataset{}); err == nil {
		t.Error("accepted empty test set")
	}
	if _, err := NewEvalMoments(nil); err == nil {
		t.Error("accepted nil test set")
	}
}
