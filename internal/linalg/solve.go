package linalg

import (
	"errors"
	"fmt"
	"math"

	"share/internal/parallel"
)

// ErrNotPositiveDefinite reports that Cholesky factorization failed because
// the matrix is not (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// ErrSingular reports a (numerically) singular system.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// Cholesky computes the lower-triangular factor L with a = L·Lᵀ for a
// symmetric positive-definite matrix. Only the lower triangle of a is read.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: Cholesky requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	l := NewMatrix(a.Rows, a.Cols)
	if err := CholeskyInto(a, l); err != nil {
		return nil, err
	}
	return l, nil
}

// CholeskyInto factors a into the caller-provided matrix l, writing the
// lower-triangular factor in place. Only the lower triangles of a and l are
// touched, so l can be reused across calls without clearing. This is the
// allocation-free core of Cholesky for hot loops that refit many small
// systems (the Shapley valuation kernel solves O(m·permutations) of them per
// trade round).
func CholeskyInto(a, l *Matrix) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("linalg: Cholesky requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if l.Rows != a.Rows || l.Cols != a.Cols {
		return fmt.Errorf("linalg: CholeskyInto factor is %dx%d, want %dx%d", l.Rows, l.Cols, a.Rows, a.Cols)
	}
	n := a.Rows
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			ljk := l.At(j, k)
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrNotPositiveDefinite
		}
		d = math.Sqrt(d)
		l.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/d)
		}
	}
	return nil
}

// SolveLower solves L·x = b for lower-triangular L by forward substitution.
func SolveLower(l *Matrix, b []float64) ([]float64, error) {
	x := make([]float64, l.Rows)
	if err := SolveLowerInto(l, b, x); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveLowerInto solves L·x = b by forward substitution into the
// caller-provided x (which may not alias b).
func SolveLowerInto(l *Matrix, b, x []float64) error {
	n := l.Rows
	if len(b) != n || len(x) != n {
		return fmt.Errorf("linalg: SolveLower dimension mismatch: %d vs %d, %d", n, len(b), len(x))
	}
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.Row(i)
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		if row[i] == 0 {
			return ErrSingular
		}
		x[i] = s / row[i]
	}
	return nil
}

// SolveLowerTInto solves Lᵀ·x = b by back substitution into the
// caller-provided x, reading the lower-triangular factor directly — the
// allocation-free equivalent of SolveUpper(l.T(), b). x may not alias b.
func SolveLowerTInto(l *Matrix, b, x []float64) error {
	n := l.Rows
	if len(b) != n || len(x) != n {
		return fmt.Errorf("linalg: SolveLowerT dimension mismatch: %d vs %d, %d", n, len(b), len(x))
	}
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= l.At(j, i) * x[j]
		}
		d := l.At(i, i)
		if d == 0 {
			return ErrSingular
		}
		x[i] = s / d
	}
	return nil
}

// SolveUpper solves U·x = b for upper-triangular U by back substitution.
func SolveUpper(u *Matrix, b []float64) ([]float64, error) {
	n := u.Rows
	if len(b) != n {
		return nil, fmt.Errorf("linalg: SolveUpper dimension mismatch: %d vs %d", n, len(b))
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		row := u.Row(i)
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		if row[i] == 0 {
			return nil, ErrSingular
		}
		x[i] = s / row[i]
	}
	return x, nil
}

// SolveSPD solves a·x = b for symmetric positive-definite a via Cholesky.
func SolveSPD(a *Matrix, b []float64) ([]float64, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	y, err := SolveLower(l, b)
	if err != nil {
		return nil, err
	}
	x := make([]float64, l.Rows)
	if err := SolveLowerTInto(l, y, x); err != nil {
		return nil, err
	}
	return x, nil
}

// QR holds the compact Householder QR factorization of an m×n matrix with
// m >= n: R is the n×n upper-triangular factor and qtb applies Qᵀ to vectors.
type QR struct {
	v []float64 // stacked Householder vectors (m per column)
	r *Matrix   // n×n upper triangular
	m int
	n int
}

// factor fills qr.v and qr.r from work, a copy of the m×n matrix being
// factored, which it overwrites; col (len ≥ m) is scratch. Every entry of
// qr.v and qr.r is written, so both can be reused across calls.
func (qr *QR) factor(work *Matrix, col []float64) error {
	m, n := qr.m, qr.n
	for k := 0; k < n; k++ {
		// Build the Householder vector for column k.
		col := col[:m-k]
		for i := k; i < m; i++ {
			col[i-k] = work.At(i, k)
		}
		alpha := Norm2(col)
		if col[0] > 0 {
			alpha = -alpha
		}
		if alpha == 0 {
			return ErrSingular
		}
		v := qr.v[k*m : (k+1)*m]
		for i := range v {
			v[i] = 0
		}
		v[k] = col[0] - alpha
		for i := k + 1; i < m; i++ {
			v[i] = work.At(i, k)
		}
		vnorm := Norm2(v[k:])
		if vnorm == 0 {
			return ErrSingular
		}
		for i := k; i < m; i++ {
			v[i] /= vnorm
		}
		// Apply H = I − 2vvᵀ to the trailing submatrix.
		for j := k; j < n; j++ {
			var dot float64
			for i := k; i < m; i++ {
				dot += v[i] * work.At(i, j)
			}
			dot *= 2
			for i := k; i < m; i++ {
				work.Set(i, j, work.At(i, j)-dot*v[i])
			}
		}
	}
	for i := 0; i < n; i++ {
		row := qr.r.Row(i)
		clear(row[:i])
		for j := i; j < n; j++ {
			row[j] = work.At(i, j)
		}
	}
	return nil
}

// applyQT overwrites b with Qᵀ·b.
func (qr *QR) applyQT(b []float64) {
	for k := 0; k < qr.n; k++ {
		v := qr.v[k*qr.m : (k+1)*qr.m]
		var dot float64
		for i := k; i < qr.m; i++ {
			dot += v[i] * b[i]
		}
		dot *= 2
		for i := k; i < qr.m; i++ {
			b[i] -= dot * v[i]
		}
	}
}

// solve returns the least-squares solution x minimizing ‖a·x − b‖₂ from
// the factorization, forming Qᵀb in the caller's qtb (len m).
func (qr *QR) solve(b, qtb []float64) ([]float64, error) {
	copy(qtb, b)
	qr.applyQT(qtb)
	return SolveUpper(qr.r, qtb[:qr.n])
}

// lsWorkspace is the QR path's working memory: the copy of the design it
// factors in place, the Householder vectors, one column buffer, R and Qᵀb.
// LeastSquares takes one from workspaces per call and puts it back before
// returning, so repeated fits — a product build every trade round — reuse
// the memory instead of rebuilding it, while concurrent callers each hold
// their own. Only the returned solution is allocated.
type lsWorkspace struct {
	work Matrix
	r    Matrix
	col  []float64
	qtb  []float64
	qr   QR
}

var workspaces parallel.FreeList[lsWorkspace]

// solveQR returns the least-squares solution of a·x = b by Householder QR,
// factored in the workspace so repeated solves reuse its buffers.
func (ws *lsWorkspace) solveQR(a *Matrix, b []float64) ([]float64, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, fmt.Errorf("linalg: QR requires rows >= cols, got %dx%d", m, n)
	}
	ws.work.Reshape(m, n)
	copy(ws.work.Data, a.Data)
	ws.r.Reshape(n, n)
	ws.col, ws.qtb = resize(ws.col, m), resize(ws.qtb, m)
	ws.qr = QR{v: resize(ws.qr.v, m*n), r: &ws.r, m: m, n: n}
	if err := ws.qr.factor(&ws.work, ws.col); err != nil {
		return nil, err
	}
	return ws.qr.solve(b, ws.qtb[:m])
}

// LeastSquares solves min ‖a·x − b‖₂. It first tries the numerically stable
// QR path; if the design matrix is rank deficient it retries on the normal
// equations with a small Tikhonov ridge (damping 1e-10·trace/n) so callers
// always receive a usable solution on degenerate workloads.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows != len(b) {
		return nil, fmt.Errorf("linalg: LeastSquares dimension mismatch: %d rows vs %d observations", a.Rows, len(b))
	}
	ws := workspaces.Get()
	x, err := ws.solveQR(a, b)
	workspaces.Put(ws, 8*(cap(ws.work.Data)+cap(ws.qr.v)+cap(ws.r.Data)+cap(ws.col)+cap(ws.qtb)))
	if err == nil {
		return x, nil
	}
	// Rank-deficient fallback: damped normal equations.
	g := a.Gram()
	var trace float64
	for i := 0; i < g.Rows; i++ {
		trace += g.At(i, i)
	}
	ridge := 1e-10 * trace / float64(g.Rows)
	if ridge == 0 {
		ridge = 1e-12
	}
	for i := 0; i < g.Rows; i++ {
		g.Set(i, i, g.At(i, i)+ridge)
	}
	atb, err := a.T().MulVec(b)
	if err != nil {
		return nil, err
	}
	return SolveSPD(g, atb)
}
