package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// FromRows builds a matrix from a slice of equally sized rows.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, errors.New("linalg: FromRows requires at least one non-empty row")
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("linalg: ragged input: row %d has %d columns, want %d", i, len(row), c)
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m, nil
}

// Mul returns the matrix product a·b, the explicit reference Gram is
// checked against.
func Mul(a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("linalg: dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k := 0; k < a.Cols; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range orow {
				orow[j] += aik * brow[j]
			}
		}
	}
	return out, nil
}

func TestFromRowsAndAccessors(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("dims = %dx%d, want 3x2", m.Rows, m.Cols)
	}
	if m.At(1, 0) != 3 || m.At(2, 1) != 6 {
		t.Error("At returned wrong elements")
	}
	m.Set(0, 1, 9)
	if m.At(0, 1) != 9 {
		t.Error("Set did not stick")
	}
	if got := m.Row(1); got[0] != 3 || got[1] != 4 {
		t.Errorf("Row(1) = %v", got)
	}
}

func TestFromRowsRagged(t *testing.T) {
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("FromRows accepted ragged input")
	}
	if _, err := FromRows(nil); err == nil {
		t.Error("FromRows accepted nil input")
	}
}

func TestTranspose(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose dims = %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := Mul(a, b)
	if err != nil {
		t.Fatalf("Mul: %v", err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Errorf("Mul[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	if _, err := Mul(a, NewMatrix(3, 2)); err == nil {
		t.Error("Mul accepted mismatched dimensions")
	}
}

func TestMulVec(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	got, err := a.MulVec([]float64{1, 1})
	if err != nil {
		t.Fatalf("MulVec: %v", err)
	}
	if got[0] != 3 || got[1] != 7 {
		t.Errorf("MulVec = %v, want [3 7]", got)
	}
	if _, err := a.MulVec([]float64{1}); err == nil {
		t.Error("MulVec accepted wrong length")
	}
}

func TestGramMatchesExplicitProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewMatrix(7, 4)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	g := a.Gram()
	explicit, err := Mul(a.T(), a)
	if err != nil {
		t.Fatalf("Mul: %v", err)
	}
	for i := range g.Data {
		if !almost(g.Data[i], explicit.Data[i], 1e-12) {
			t.Fatalf("Gram differs from AᵀA at flat index %d: %v vs %v", i, g.Data[i], explicit.Data[i])
		}
	}
}

func TestNorm2(t *testing.T) {
	if !almost(Norm2([]float64{3, 4}), 5, 1e-12) {
		t.Error("Norm2 wrong")
	}
	if Norm2(nil) != 0 {
		t.Error("Norm2 of empty should be 0")
	}
	// Overflow guard: naive sum of squares would overflow.
	if got := Norm2([]float64{1e200, 1e200}); math.IsInf(got, 0) {
		t.Error("Norm2 overflowed on large inputs")
	}
}

func TestCholeskySolveSPD(t *testing.T) {
	a, _ := FromRows([][]float64{
		{4, 2, 0},
		{2, 5, 1},
		{0, 1, 3},
	})
	x := []float64{1, -2, 3}
	b, _ := a.MulVec(x)
	got, err := SolveSPD(a, b)
	if err != nil {
		t.Fatalf("SolveSPD: %v", err)
	}
	for i := range x {
		if !almost(got[i], x[i], 1e-10) {
			t.Errorf("SolveSPD x[%d] = %v, want %v", i, got[i], x[i])
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Error("Cholesky accepted an indefinite matrix")
	}
	if _, err := Cholesky(NewMatrix(2, 3)); err == nil {
		t.Error("Cholesky accepted a non-square matrix")
	}
}

func TestTriangularSolves(t *testing.T) {
	l, _ := FromRows([][]float64{{2, 0}, {1, 3}})
	x, err := SolveLower(l, []float64{4, 10})
	if err != nil {
		t.Fatalf("SolveLower: %v", err)
	}
	if !almost(x[0], 2, 1e-12) || !almost(x[1], 8.0/3, 1e-12) {
		t.Errorf("SolveLower = %v", x)
	}
	u, _ := FromRows([][]float64{{2, 1}, {0, 3}})
	x, err = SolveUpper(u, []float64{5, 6})
	if err != nil {
		t.Fatalf("SolveUpper: %v", err)
	}
	if !almost(x[1], 2, 1e-12) || !almost(x[0], 1.5, 1e-12) {
		t.Errorf("SolveUpper = %v", x)
	}
}

func TestQRSolveExact(t *testing.T) {
	a, _ := FromRows([][]float64{
		{1, 1},
		{1, 2},
		{1, 3},
	})
	// y = 2 + 3x exactly.
	b := []float64{5, 8, 11}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatalf("QR solve: %v", err)
	}
	if !almost(x[0], 2, 1e-10) || !almost(x[1], 3, 1e-10) {
		t.Errorf("QR solution = %v, want [2 3]", x)
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Noisy linear data; LS must satisfy the normal equations Aᵀ(Ax−b)=0.
	rng := rand.New(rand.NewSource(7))
	n, k := 50, 3
	a := NewMatrix(n, k)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		row := a.Row(i)
		row[0] = 1
		row[1] = rng.Float64() * 10
		row[2] = rng.Float64() * 5
		b[i] = 2 + 0.5*row[1] - 1.5*row[2] + rng.NormFloat64()*0.1
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatalf("LeastSquares: %v", err)
	}
	ax, _ := a.MulVec(x)
	resid := make([]float64, n)
	for i := range resid {
		resid[i] = ax[i] - b[i]
	}
	grad, _ := a.T().MulVec(resid)
	for i, gi := range grad {
		if math.Abs(gi) > 1e-8 {
			t.Errorf("normal equations violated: grad[%d] = %v", i, gi)
		}
	}
}

func TestLeastSquaresRankDeficientFallback(t *testing.T) {
	// Duplicate column: rank deficient; the ridge fallback must still
	// return a finite solution that reproduces b.
	a, _ := FromRows([][]float64{
		{1, 1, 2},
		{1, 2, 4},
		{1, 3, 6},
		{1, 4, 8},
	})
	b := []float64{1, 2, 3, 4}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatalf("LeastSquares on rank-deficient design: %v", err)
	}
	ax, _ := a.MulVec(x)
	for i := range b {
		if !almost(ax[i], b[i], 1e-4) {
			t.Errorf("fallback fit: ax[%d] = %v, want %v", i, ax[i], b[i])
		}
	}
}

// Property: for random SPD systems, SolveSPD reproduces the known solution.
func TestSolveSPDProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		base := NewMatrix(n, n)
		for i := range base.Data {
			base.Data[i] = r.NormFloat64()
		}
		spd := base.Gram() // BᵀB is PSD; add ridge for strict PD
		for i := 0; i < n; i++ {
			spd.Set(i, i, spd.At(i, i)+float64(n))
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		b, _ := spd.MulVec(x)
		got, err := SolveSPD(spd, b)
		if err != nil {
			return false
		}
		for i := range x {
			if !almost(got[i], x[i], 1e-8*(1+math.Abs(x[i]))) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Property: QR least-squares residuals are orthogonal to the column space.
func TestQROrthogonalResidualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 6 + r.Intn(20)
		k := 2 + r.Intn(4)
		a := NewMatrix(n, k)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, err := LeastSquares(a, b)
		if err != nil {
			return false
		}
		ax, _ := a.MulVec(x)
		for i := range ax {
			ax[i] -= b[i]
		}
		grad, _ := a.T().MulVec(ax)
		for _, gi := range grad {
			if math.Abs(gi) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150, Rand: rng}); err != nil {
		t.Error(err)
	}
}
