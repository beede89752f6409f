// Allocation-free variants of the solver kernels. Every *Into function
// writes into caller-owned storage and performs bitwise the same arithmetic
// as its allocating counterpart (which are thin wrappers over these), so
// hot paths — gp.Predict, the acquisition search, incremental Cholesky
// maintenance — can reuse workspaces without changing a single result bit.
package linalg

import (
	"fmt"
	"math"
)

// MulVecInto computes m*x into out, which must have length m.Rows.
//
//autolint:hotpath
func (m *Matrix) MulVecInto(x, out []float64) {
	if m.Cols != len(x) || m.Rows != len(out) {
		panic(fmt.Sprintf("linalg: mulvecinto dims %dx%d * %d -> %d", m.Rows, m.Cols, len(x), len(out)))
	}
	for i := 0; i < m.Rows; i++ {
		out[i] = Dot(m.Row(i), x)
	}
}

// SolveLowerInto solves L y = b for lower-triangular L by forward
// substitution, writing y into out. out may alias b: position i is read
// before it is written.
//
//autolint:hotpath
func SolveLowerInto(l *Matrix, b, out []float64) error {
	n := l.Rows
	if len(b) != n || len(out) != n {
		return fmt.Errorf("linalg: solve dims %d vs %d, %d", n, len(b), len(out))
	}
	for i := 0; i < n; i++ {
		row := l.Row(i)
		s := b[i] - Dot(row[:i], out[:i])
		if row[i] == 0 {
			return ErrSingular
		}
		out[i] = s / row[i]
	}
	return nil
}

// SolveLower2Into is SolveLowerInto for two right-hand sides at once: each
// row of l is loaded once and serves both substitutions (Dot2), and out0,
// out1 are bitwise what two SolveLowerInto calls write. A zero pivot fails
// both systems at the same row, as it would separately.
//
//autolint:hotpath
func SolveLower2Into(l *Matrix, b0, b1, out0, out1 []float64) error {
	n := l.Rows
	if len(b0) != n || len(b1) != n || len(out0) != n || len(out1) != n {
		return fmt.Errorf("linalg: solve2 dims %d vs %d, %d, %d, %d", n, len(b0), len(b1), len(out0), len(out1))
	}
	for i := 0; i < n; i++ {
		row := l.Row(i)
		s0, s1 := Dot2(out0[:i], out1[:i], row[:i])
		if row[i] == 0 {
			return ErrSingular
		}
		out0[i] = (b0[i] - s0) / row[i]
		out1[i] = (b1[i] - s1) / row[i]
	}
	return nil
}

// SolveUpperFromLowerTInto solves Lᵀ x = y by backward substitution without
// materializing the transpose, writing x into out. out may alias y.
//
//autolint:hotpath
func SolveUpperFromLowerTInto(l *Matrix, y, out []float64) error {
	n := l.Rows
	if len(y) != n || len(out) != n {
		return fmt.Errorf("linalg: solve dims %d vs %d, %d", n, len(y), len(out))
	}
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= l.At(j, i) * out[j]
		}
		d := l.At(i, i)
		if d == 0 {
			return ErrSingular
		}
		out[i] = s / d
	}
	return nil
}

// CholeskySolveInto solves A x = b given the Cholesky factor L of A,
// writing x into out. out may alias b; no intermediate storage is needed
// because both triangular solves run in place.
//
//autolint:hotpath
func CholeskySolveInto(l *Matrix, b, out []float64) error {
	if err := SolveLowerInto(l, b, out); err != nil {
		return err
	}
	return SolveUpperFromLowerTInto(l, out, out)
}

// CholeskyInto factors a + jitter·I into the lower-triangular l (which must
// be n×n and must not alias a). l is fully overwritten, including zeroing
// the strict upper triangle, so a reused buffer yields a factor bitwise
// identical to a freshly allocated one. Below the diagonal each column is
// filled two rows per pass over l's row j (Dot2): every element is bitwise
// the single-row result Dot(l[i,:j], l[j,:j]) gives, so the pairing changes
// the time (about 0.7x at n = 192 and 512) and not a bit of the factor.
//
//autolint:hotpath
func CholeskyInto(a, l *Matrix, jitter float64) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("linalg: cholesky of %dx%d: not square", a.Rows, a.Cols)
	}
	n := a.Rows
	if l.Rows != n || l.Cols != n {
		return fmt.Errorf("linalg: cholesky factor dims %dx%d, want %dx%d", l.Rows, l.Cols, n, n)
	}
	for j := 0; j < n; j++ {
		ljrow := l.Row(j)[:j]
		d := a.At(j, j) + jitter - Dot(ljrow, ljrow)
		if d <= 0 || math.IsNaN(d) {
			return ErrNotPositiveDefinite
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		upper := l.Row(j)[j+1:]
		for i := range upper {
			upper[i] = 0
		}
		inv := 1 / ljj
		i := j + 1
		for ; i+2 <= n; i += 2 {
			r0, r1 := l.Row(i), l.Row(i+1)
			s0, s1 := Dot2(r0[:j], r1[:j], ljrow)
			r0[j] = (a.At(i, j) - s0) * inv
			r1[j] = (a.At(i+1, j) - s1) * inv
		}
		if i < n {
			lirow := l.Row(i)
			lirow[j] = (a.At(i, j) - Dot(lirow[:j], ljrow)) * inv
		}
	}
	return nil
}

// CholeskyJitterInto is CholeskyInto with progressive diagonal jitter
// (1e-10, 1e-9, ... up to maxJitter), retrying until the factorization
// succeeds without ever cloning a. It returns the jitter used.
func CholeskyJitterInto(a, l *Matrix, maxJitter float64) (float64, error) {
	if err := CholeskyInto(a, l, 0); err == nil {
		return 0, nil
	} else if err != ErrNotPositiveDefinite {
		return 0, err
	}
	for jit := 1e-10; jit <= maxJitter; jit *= 10 {
		if err := CholeskyInto(a, l, jit); err == nil {
			return jit, nil
		} else if err != ErrNotPositiveDefinite {
			return 0, err
		}
	}
	return 0, ErrNotPositiveDefinite
}

// GrowSquare resizes an n×n matrix to (n+1)×(n+1) in place, keeping every
// existing element at its (i, j) position and zeroing the new row and
// column. When the backing array has capacity the rows are restrided
// backward (row i moves from offset i·n to i·(n+1); descending order keeps
// each move ahead of the data it overwrites); otherwise a new array is
// allocated with geometric reserve so a growing SPD system — one Observe
// per trial — costs amortized O(1) allocations. Returns m.
func (m *Matrix) GrowSquare() *Matrix {
	n := m.Rows
	if m.Cols != n {
		panic(fmt.Sprintf("linalg: growsquare of %dx%d: not square", m.Rows, m.Cols))
	}
	nn := n + 1
	need := nn * nn
	if cap(m.Data) < need {
		reserve := nn + nn/4 + 4
		data := make([]float64, need, reserve*reserve)
		for i := 0; i < n; i++ {
			copy(data[i*nn:i*nn+n], m.Data[i*n:(i+1)*n])
		}
		m.Data = data
	} else {
		m.Data = m.Data[:need]
		for i := n - 1; i >= 1; i-- {
			copy(m.Data[i*nn:i*nn+n], m.Data[i*n:i*n+n])
		}
		for i := 0; i < n; i++ {
			m.Data[i*nn+n] = 0
		}
		last := m.Data[n*nn : need]
		for i := range last {
			last[i] = 0
		}
	}
	m.Rows, m.Cols = nn, nn
	return m
}

// CholUpdateRowInPlace extends the lower-triangular Cholesky factor l of an
// n×n SPD matrix to the factor of the bordered (n+1)×(n+1) matrix in O(n²),
// growing l in place (see CholUpdateRow for the math). scratch, when it has
// capacity n, is used for the forward solve; pass nil to allocate. l is
// untouched on error, so callers can fall back to a full refactorization.
func CholUpdateRowInPlace(l *Matrix, k []float64, d float64, scratch []float64) error {
	n := l.Rows
	if l.Cols != n {
		return fmt.Errorf("linalg: cholupdate of %dx%d: not square", l.Rows, l.Cols)
	}
	if len(k) != n {
		return fmt.Errorf("linalg: cholupdate row length %d vs %d", len(k), n)
	}
	if cap(scratch) < n {
		scratch = make([]float64, n)
	}
	c := scratch[:n]
	if err := SolveLowerInto(l, k, c); err != nil {
		return err
	}
	s := d - Dot(c, c)
	if s <= 0 || math.IsNaN(s) {
		return ErrNotPositiveDefinite
	}
	l.GrowSquare()
	last := l.Row(n)
	copy(last[:n], c)
	last[n] = math.Sqrt(s)
	return nil
}
