// Package linalg implements the small dense linear-algebra kernel the
// autotuning framework needs: row-major matrices, Cholesky factorization
// (with an O(n²) rank-1 row update for growing SPD systems), triangular
// solves, symmetric eigendecomposition (cyclic Jacobi), and least-squares
// via normal equations. Matrices here are tens to a few hundreds of rows
// (GP training sets, CMA-ES covariances); the hot loops — Mul, Cholesky,
// the triangular solves, Dot — hoist row slices and block for cache
// locality because they sit on the per-suggestion path of the Bayesian
// optimizer, but there is no SIMD or cgo.
//
// Exactness contract: Dot fixes the order in which an inner product is
// summed (four interleaved partial sums, then the tail), and every faster
// kernel built on it — Dot2, the two-rows-per-pass CholeskyInto,
// SolveLower2Into — produces bitwise the single-row result. Pairing shares
// the loads of one operand between two independent sums; it never
// reassociates a sum. That is what lets a kernel change land under the
// golden suggest streams and fitted-bits fixtures without regenerating them.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is
// not (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix not positive definite")

// ErrSingular is returned by solves on singular systems.
var ErrSingular = errors.New("linalg: singular matrix")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zeroed r x c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: invalid dims %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from row slices, which must be equal length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add increments element (i, j) by v.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

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

// mulBlock is the tile edge for the blocked ikj product: a 64×64 float64
// tile is 32 KiB, so the b-tile and out-tile being streamed stay resident
// in L1/L2 while a full k-panel is applied.
const mulBlock = 64

// Mul returns the matrix product a*b. The loop nest is ikj-ordered (the
// innermost loop streams a row of b and a row of out sequentially) and
// tiled over k and j so large products reuse cache lines instead of
// striding; zero entries of a are skipped, which one-hot encodings hit
// often.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: mul dims %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(a.Rows, b.Cols)
	for kk := 0; kk < a.Cols; kk += mulBlock {
		kend := min(kk+mulBlock, a.Cols)
		for jj := 0; jj < b.Cols; jj += mulBlock {
			jend := min(jj+mulBlock, b.Cols)
			for i := 0; i < a.Rows; i++ {
				arow := a.Row(i)[kk:kend]
				orow := out.Row(i)[jj:jend]
				for k, av := range arow {
					if av == 0 {
						continue
					}
					brow := b.Row(kk + k)[jj:jend]
					for j, bv := range brow {
						orow[j] += av * bv
					}
				}
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m*x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if m.Cols != len(x) {
		panic(fmt.Sprintf("linalg: mulvec dims %dx%d * %d", m.Rows, m.Cols, len(x)))
	}
	out := make([]float64, m.Rows)
	m.MulVecInto(x, out)
	return out
}

// Scale multiplies every element of m by s in place and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// AddMat returns a+b as a new matrix.
func AddMat(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("linalg: add dims mismatch")
	}
	out := a.Clone()
	for i := range out.Data {
		out.Data[i] += b.Data[i]
	}
	return out
}

// Dot returns the inner product of two equal-length vectors. Four partial
// sums let the multiplies pipeline; the b reslice makes the bounds of both
// operands known to the compiler so the inner loop carries no checks.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: dot length mismatch")
	}
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// Dot2 returns a0·b and a1·b from one pass over b. Each result is bitwise
// what Dot(a0, b) and Dot(a1, b) return — the same four partial sums, added
// in the same order — so a caller may pair rows freely without moving a
// result bit; sharing the loads of b is the whole saving. (A NaN result is a
// NaN; which payload it carries is not part of the contract.)
//
//autolint:hotpath
func Dot2(a0, a1, b []float64) (float64, float64) {
	if len(a0) != len(b) || len(a1) != len(b) {
		panic("linalg: dot2 length mismatch")
	}
	a0, a1 = a0[:len(b)], a1[:len(b)]
	var s0, s1, s2, s3, t0, t1, t2, t3 float64
	i := 0
	for ; i+4 <= len(b); i += 4 {
		b0, b1, b2, b3 := b[i], b[i+1], b[i+2], b[i+3]
		s0 += a0[i] * b0
		s1 += a0[i+1] * b1
		s2 += a0[i+2] * b2
		s3 += a0[i+3] * b3
		t0 += a1[i] * b0
		t1 += a1[i+1] * b1
		t2 += a1[i+2] * b2
		t3 += a1[i+3] * b3
	}
	s := s0 + s1 + s2 + s3
	t := t0 + t1 + t2 + t3
	for ; i < len(b); i++ {
		s += a0[i] * b[i]
		t += a1[i] * b[i]
	}
	return s, t
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 { return math.Sqrt(Dot(x, x)) }

// AXPY computes y += a*x in place.
func AXPY(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: axpy length mismatch")
	}
	for i := range x {
		y[i] += a * x[i]
	}
}

// Cholesky computes the lower-triangular factor L with A = L Lᵀ. A must be
// square and symmetric positive definite; only the lower triangle of A is
// read. Returns ErrNotPositiveDefinite on failure.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: cholesky of %dx%d: not square", a.Rows, a.Cols)
	}
	l := NewMatrix(a.Rows, a.Rows)
	if err := CholeskyInto(a, l, 0); err != nil {
		return nil, err
	}
	return l, nil
}

// CholUpdateRow extends the lower-triangular Cholesky factor L of an n×n
// SPD matrix A to the factor of the bordered (n+1)×(n+1) matrix
//
//	[ A   k ]
//	[ kᵀ  d ]
//
// in O(n²): it solves L c = k by forward substitution, appends the row
// [cᵀ, √(d − c·c)], and copies L into a freshly allocated factor. This is
// how a Gaussian process absorbs one new observation without the O(n³)
// refactorization. Returns ErrNotPositiveDefinite when the bordered matrix
// is not numerically SPD (d − c·c ≤ 0); callers should then fall back to a
// full factorization with jitter.
func CholUpdateRow(l *Matrix, k []float64, d float64) (*Matrix, error) {
	out := l.Clone()
	if err := CholUpdateRowInPlace(out, k, d, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// CholeskyJitter is Cholesky with progressive diagonal jitter: it retries
// with jitter 1e-10, 1e-9, ... up to maxJitter added to the diagonal until
// the factorization succeeds. It returns the factor and the jitter used.
func CholeskyJitter(a *Matrix, maxJitter float64) (*Matrix, float64, error) {
	if a.Rows != a.Cols {
		return nil, 0, fmt.Errorf("linalg: cholesky of %dx%d: not square", a.Rows, a.Cols)
	}
	l := NewMatrix(a.Rows, a.Rows)
	jit, err := CholeskyJitterInto(a, l, maxJitter)
	if err != nil {
		return nil, 0, err
	}
	return l, jit, nil
}

// SolveLower solves L y = b for lower-triangular L by forward substitution.
func SolveLower(l *Matrix, b []float64) ([]float64, error) {
	y := make([]float64, l.Rows)
	if err := SolveLowerInto(l, b, y); err != nil {
		return nil, err
	}
	return y, nil
}

// SolveUpperFromLowerT solves Lᵀ x = y where L is lower triangular, by
// backward substitution without materializing the transpose.
func SolveUpperFromLowerT(l *Matrix, y []float64) ([]float64, error) {
	x := make([]float64, l.Rows)
	if err := SolveUpperFromLowerTInto(l, y, x); err != nil {
		return nil, err
	}
	return x, nil
}

// CholeskySolve solves A x = b given the Cholesky factor L of A.
func CholeskySolve(l *Matrix, b []float64) ([]float64, error) {
	x := make([]float64, l.Rows)
	if err := CholeskySolveInto(l, b, x); err != nil {
		return nil, err
	}
	return x, nil
}

// LogDetFromChol returns log(det(A)) given the Cholesky factor L of A.
func LogDetFromChol(l *Matrix) float64 {
	s := 0.0
	for i := 0; i < l.Rows; i++ {
		s += math.Log(l.At(i, i))
	}
	return 2 * s
}

// SolveLU solves the general square system A x = b using Gaussian
// elimination with partial pivoting. A is not modified.
func SolveLU(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		return nil, fmt.Errorf("linalg: solveLU dims %dx%d, b %d", a.Rows, a.Cols, len(b))
	}
	m := a.Clone()
	x := append([]float64(nil), b...)
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv, pmax := col, math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > pmax {
				piv, pmax = r, v
			}
		}
		if pmax < 1e-14 {
			return nil, ErrSingular
		}
		if piv != col {
			for j := 0; j < n; j++ {
				vi, vp := m.At(col, j), m.At(piv, j)
				m.Set(col, j, vp)
				m.Set(piv, j, vi)
			}
			x[col], x[piv] = x[piv], x[col]
		}
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				m.Add(r, j, -f*m.At(col, j))
			}
			x[r] -= f * x[col]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m.At(i, j) * x[j]
		}
		x[i] = s / m.At(i, i)
	}
	return x, nil
}

// SymEigen computes the eigendecomposition of a symmetric matrix using the
// cyclic Jacobi method. It returns eigenvalues (ascending) and a matrix
// whose COLUMNS are the corresponding orthonormal eigenvectors.
func SymEigen(a *Matrix) (vals []float64, vecs *Matrix, err error) {
	n := a.Rows
	if a.Cols != n {
		return nil, nil, fmt.Errorf("linalg: eigen of %dx%d: not square", a.Rows, a.Cols)
	}
	m := a.Clone()
	v := Identity(n)
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += m.At(i, j) * m.At(i, j)
			}
		}
		if off < 1e-22*float64(n*n) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := m.At(p, p), m.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				// Rotate rows/cols p and q of m.
				for k := 0; k < n; k++ {
					akp, akq := m.At(k, p), m.At(k, q)
					m.Set(k, p, c*akp-s*akq)
					m.Set(k, q, s*akp+c*akq)
				}
				for k := 0; k < n; k++ {
					apk, aqk := m.At(p, k), m.At(q, k)
					m.Set(p, k, c*apk-s*aqk)
					m.Set(q, k, s*apk+c*aqk)
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	vals = make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = m.At(i, i)
	}
	// Sort ascending, permuting eigenvector columns accordingly.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ { // insertion sort; n is small
		for j := i; j > 0 && vals[idx[j]] < vals[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	sortedVals := make([]float64, n)
	sortedVecs := NewMatrix(n, n)
	for newCol, oldCol := range idx {
		sortedVals[newCol] = vals[oldCol]
		for r := 0; r < n; r++ {
			sortedVecs.Set(r, newCol, v.At(r, oldCol))
		}
	}
	return sortedVals, sortedVecs, nil
}

// LeastSquares solves min ||A x - b||₂ via the normal equations with a tiny
// ridge term for stability. Suitable for the small, well-scaled regression
// problems in this codebase (knob importance, mixture fitting).
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows != len(b) {
		return nil, fmt.Errorf("linalg: lstsq dims %dx%d, b %d", a.Rows, a.Cols, len(b))
	}
	at := a.T()
	ata := Mul(at, a)
	for i := 0; i < ata.Rows; i++ {
		ata.Add(i, i, 1e-10)
	}
	atb := at.MulVec(b)
	return SolveLU(ata, atb)
}
