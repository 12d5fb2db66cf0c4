// Package linalg implements the dense linear algebra Share needs to train
// linear-regression data products and to fit translog cost parameters:
// row-major dense matrices, matrix products, Cholesky and QR factorizations,
// triangular solves, and an ordinary-least-squares driver.
//
// The implementation is deliberately simple (no blocking, no SIMD) but
// numerically careful: OLS prefers the QR path and falls back to normal
// equations with Tikhonov damping only when the system is rank deficient.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix allocates a zeroed r×c matrix. It panics if r or c is not
// positive, since a zero-dimension matrix is always a programming error here.
func NewMatrix(r, c int) *Matrix {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

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

// Reshape makes m an r×c matrix, reusing its storage when it has the
// capacity, so a caller refilling a matrix of varying shape allocates only
// when it grows. The contents are unspecified.
func (m *Matrix) Reshape(r, c int) {
	m.Rows, m.Cols, m.Data = r, c, resize(m.Data, r*c)
}

// resize returns s with length n, reusing its storage when it has the
// capacity. The contents are unspecified.
func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Mul returns the matrix product a·b.
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

// MulVec returns the matrix-vector product m·x.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if len(x) != m.Cols {
		return nil, fmt.Errorf("linalg: MulVec dimension mismatch: %dx%d · %d", m.Rows, m.Cols, len(x))
	}
	out := make([]float64, m.Rows)
	for i := range out {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// Gram returns mᵀ·m, the Gram matrix, computed exploiting symmetry.
func (m *Matrix) Gram() *Matrix {
	out := NewMatrix(m.Cols, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for a := 0; a < m.Cols; a++ {
			ra := row[a]
			if ra == 0 {
				continue
			}
			orow := out.Row(a)
			for b := a; b < m.Cols; b++ {
				orow[b] += ra * row[b]
			}
		}
	}
	for a := 0; a < m.Cols; a++ {
		for b := a + 1; b < m.Cols; b++ {
			out.Set(b, a, out.At(a, b))
		}
	}
	return out
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v, guarding against overflow by
// scaling.
func Norm2(v []float64) float64 {
	var scale, ssq float64 = 0, 1
	for _, x := range v {
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}
