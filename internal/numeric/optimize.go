// Package numeric provides the scalar numerical routines Share depends on:
// one-dimensional maximization (golden-section and Brent's parabolic
// search), numerical differentiation and evenly spaced grids. The Go
// standard library ships no numerical toolkit, so this package implements
// the classical algorithms from scratch on float64.
//
// All routines are deterministic and allocation-free on the hot path; the
// generic Nash solver in internal/nash and the general equilibrium cascade
// in internal/core use them as their inner best-response optimizers.
package numeric

import "math"

// InvPhi is 1/φ, the inverse golden ratio: the bracket shrink factor of
// golden-section search. Exported so callers scheduling per-evaluation
// accuracy can reproduce the bracket trajectory (width after k steps is
// InvPhi^k of the initial bracket).
var InvPhi = (math.Sqrt(5) - 1) / 2

// invPhi is the internal alias.
var invPhi = InvPhi

// GoldenMax maximizes a unimodal function f on the closed interval [a, b]
// using golden-section search and returns the maximizing abscissa. The search
// shrinks the bracket by the inverse golden ratio each step, needing one
// function evaluation per iteration. tol is the absolute tolerance on the
// bracket width, floored at 1e-10 (golden-section cannot do better than
// ~sqrt(machine epsilon) in x); pass 0 for the floor.
func GoldenMax(f func(float64) float64, a, b, tol float64) float64 {
	if tol <= 0 || tol < 1e-10 {
		tol = 1e-10
	}
	if a > b {
		a, b = b, a
	}
	c := b - invPhi*(b-a)
	d := a + invPhi*(b-a)
	fc, fd := f(c), f(d)
	for b-a > tol {
		if fc > fd {
			b, d, fd = d, c, fc
			c = b - invPhi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + invPhi*(b-a)
			fd = f(d)
		}
	}
	return (a + b) / 2
}

// GoldenMaxErr is GoldenMax with an error-returning objective: the first
// error aborts the search immediately and is returned with a zero abscissa.
// Expensive objectives (an objective evaluation that is itself an iterative
// solve) use it to propagate cancellation and solver failures out of the
// search instead of masking them behind a sentinel value that silently
// corrupts the bracket.
func GoldenMaxErr(f func(float64) (float64, error), a, b, tol float64) (float64, error) {
	if tol <= 0 || tol < 1e-10 {
		tol = 1e-10
	}
	if a > b {
		a, b = b, a
	}
	c := b - invPhi*(b-a)
	d := a + invPhi*(b-a)
	fc, err := f(c)
	if err != nil {
		return 0, err
	}
	fd, err := f(d)
	if err != nil {
		return 0, err
	}
	for b-a > tol {
		if fc > fd {
			b, d, fd = d, c, fc
			c = b - invPhi*(b-a)
			if fc, err = f(c); err != nil {
				return 0, err
			}
		} else {
			a, c, fc = c, d, fd
			d = a + invPhi*(b-a)
			if fd, err = f(d); err != nil {
				return 0, err
			}
		}
	}
	return (a + b) / 2, nil
}

// PairFunc evaluates an objective at two abscissae and returns the values in
// argument order. width is the current bracket width, for callers that
// schedule the accuracy of each evaluation against the search's progress
// (coarse while the bracket is wide, tight as it closes). Implementations
// may evaluate the two points concurrently; GoldenMaxSpec never depends on
// their evaluation order, only on the returned values.
type PairFunc func(x1, x2, width float64) (f1, f2 float64, err error)

// GoldenMaxSpec is the speculative form of GoldenMaxErr: probe points are
// issued in pairs. The initial pair is the two interior golden points; each
// subsequent pair holds the two candidate successors of the bracket step —
// only one survives the fc/fd comparison, so a concurrent PairFunc overlaps
// the evaluation the sequential search would do next with the one it might
// need after that. The abscissa trajectory is identical to GoldenMaxErr's
// on the same objective values: speculation changes who computes what when,
// never what the bracket does.
func GoldenMaxSpec(pair PairFunc, a, b, tol float64) (float64, error) {
	if tol <= 0 || tol < 1e-10 {
		tol = 1e-10
	}
	if a > b {
		a, b = b, a
	}
	c := b - invPhi*(b-a)
	d := a + invPhi*(b-a)
	fc, fd, err := pair(c, d, b-a)
	if err != nil {
		return 0, err
	}
	for b-a > tol {
		// u succeeds c if the bracket keeps [a, d]; v succeeds d if it
		// keeps [c, b]. Both are evaluated before the branch resolves.
		u := d - invPhi*(d-a)
		v := c + invPhi*(b-c)
		fu, fv, err := pair(u, v, b-a)
		if err != nil {
			return 0, err
		}
		if fc > fd {
			b, d, fd = d, c, fc
			c, fc = u, fu
		} else {
			a, c, fc = c, d, fd
			d, fd = v, fv
		}
	}
	return (a + b) / 2, nil
}

// cgold is 2 − φ, the golden-section step fraction of Brent's method.
const cgold = 0.3819660112501051

// BrentMax maximizes a unimodal function on [a, b] by Brent's method:
// successive parabolic interpolation safeguarded by golden-section steps.
// On smooth objectives it converges superlinearly — typically 8–15
// evaluations against golden section's ~ln(width/tol)/0.48 — while the
// golden fallback keeps worst-case behavior comparable to GoldenMax. tol is
// the absolute localization tolerance on the returned abscissa, floored at
// 1e-10 like GoldenMax. Best-response searches inside the equilibrium
// cascade use it; it is deterministic (a pure function of f's values), so
// results stay bit-identical for every worker count.
func BrentMax(f func(float64) float64, a, b, tol float64) float64 {
	if tol <= 0 || tol < 1e-10 {
		tol = 1e-10
	}
	if a > b {
		a, b = b, a
	}
	x := a + cgold*(b-a)
	w, v := x, x
	fx := -f(x)
	fw, fv := fx, fx
	var d, e float64
	for iter := 0; iter < 200; iter++ {
		m := 0.5 * (a + b)
		tol1 := 1e-12*math.Abs(x) + tol
		tol2 := 2 * tol1
		if math.Abs(x-m) <= tol2-0.5*(b-a) {
			break
		}
		useGolden := true
		if math.Abs(e) > tol1 {
			// Parabola through (x, fx), (w, fw), (v, fv); accept its vertex
			// only if it falls inside the bracket and halves the
			// step-before-last (the classic convergence guard).
			r := (x - w) * (fx - fv)
			q := (x - v) * (fx - fw)
			p := (x-v)*q - (x-w)*r
			q = 2 * (q - r)
			if q > 0 {
				p = -p
			}
			q = math.Abs(q)
			etmp := e
			e = d
			if math.Abs(p) < math.Abs(0.5*q*etmp) && p > q*(a-x) && p < q*(b-x) {
				d = p / q
				u := x + d
				if u-a < tol2 || b-u < tol2 {
					d = tol1
					if x > m {
						d = -tol1
					}
				}
				useGolden = false
			}
		}
		if useGolden {
			if x < m {
				e = b - x
			} else {
				e = a - x
			}
			d = cgold * e
		}
		var u float64
		switch {
		case math.Abs(d) >= tol1:
			u = x + d
		case d > 0:
			u = x + tol1
		default:
			u = x - tol1
		}
		fu := -f(u)
		if fu <= fx {
			if u < x {
				b = x
			} else {
				a = x
			}
			v, fv = w, fw
			w, fw = x, fx
			x, fx = u, fu
		} else {
			if u < x {
				a = u
			} else {
				b = u
			}
			if fu <= fw || w == x {
				v, fv = w, fw
				w, fw = u, fu
			} else if fu <= fv || v == x || v == w {
				v, fv = u, fu
			}
		}
	}
	return x
}

// Derivative estimates f'(x) by central differences with step h; pass h <= 0
// for an automatic step scaled to x (cube root of machine epsilon, the
// accuracy-optimal choice for central differences).
func Derivative(f func(float64) float64, x, h float64) float64 {
	if h <= 0 {
		h = 6.055e-6 * (1 + math.Abs(x)) // cbrt(eps) ≈ 6.055e-6
	}
	return (f(x+h) - f(x-h)) / (2 * h)
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	switch {
	case x < lo:
		return lo
	case x > hi:
		return hi
	default:
		return x
	}
}

// Linspace returns n evenly spaced points from a to b inclusive. n must be at
// least 2; n == 1 returns just a.
func Linspace(a, b float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{a}
	}
	out := make([]float64, n)
	step := (b - a) / float64(n-1)
	for i := range out {
		out[i] = a + float64(i)*step
	}
	out[n-1] = b
	return out
}

// Logspace returns n points spaced evenly on a log scale between a and b
// inclusive (both must be positive).
func Logspace(a, b float64, n int) []float64 {
	pts := Linspace(math.Log(a), math.Log(b), n)
	for i, p := range pts {
		pts[i] = math.Exp(p)
	}
	if n >= 1 {
		pts[0] = a
	}
	if n >= 2 {
		pts[n-1] = b
	}
	return pts
}
