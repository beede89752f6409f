package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// The paired kernels (Dot2, the two-row CholeskyInto, SolveLower2Into)
// promise the bits of the single-row loops they replaced. The single-row
// references live here, not in product code.

// sameBits is bit equality, with every NaN equal to every other: which NaN
// payload a product propagates is the compiler's operand order, not ours.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// choleskyRef is CholeskyInto as it stood before rows were paired: one Dot
// per element.
func choleskyRef(a, l *Matrix, jitter float64) error {
	n := a.Rows
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
		for i := j + 1; i < n; i++ {
			lirow := l.Row(i)
			lirow[j] = (a.At(i, j) - Dot(lirow[:j], ljrow)) * inv
		}
	}
	return nil
}

func TestDot2BitwiseDot(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	fills := []struct {
		name string
		at   func(i int) float64
	}{
		{"normal", func(int) float64 { return rng.NormFloat64() }},
		// Huge terms of alternating sign: the sum is what survives
		// cancellation, so any reordering of the adds shows.
		{"cancel", func(i int) float64 {
			return float64(1-2*(i%2))*1e16*(1+rng.Float64()) + rng.NormFloat64()
		}},
		{"inf", func(i int) float64 {
			if i%5 == 3 {
				return math.Inf(1 - 2*(i%2))
			}
			return rng.NormFloat64()
		}},
		{"nan", func(i int) float64 {
			if i%7 == 2 {
				return math.NaN()
			}
			return rng.NormFloat64()
		}},
	}
	for _, fill := range fills {
		for n := 0; n <= 67; n++ {
			a0, a1, b := make([]float64, n), make([]float64, n), make([]float64, n)
			for i := 0; i < n; i++ {
				a0[i], a1[i], b[i] = fill.at(i), fill.at(i+1), rng.NormFloat64()
			}
			s0, s1 := Dot2(a0, a1, b)
			if w0, w1 := Dot(a0, b), Dot(a1, b); !sameBits(s0, w0) || !sameBits(s1, w1) {
				t.Fatalf("%s n=%d: Dot2 = (%x, %x), Dot = (%x, %x)", fill.name, n,
					math.Float64bits(s0), math.Float64bits(s1), math.Float64bits(w0), math.Float64bits(w1))
			}
		}
	}
}

func TestCholeskyIntoBitwiseSingleRow(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	sizes := []int{191, 192, 193}
	for n := 1; n <= 33; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		spd := randSPD(n, rng)
		// Rank 2: positive definite only once jitter is added, and (for
		// n > 2) rejected without it by both loops.
		low := NewMatrix(n, 2)
		for i := range low.Data {
			low.Data[i] = rng.NormFloat64()
		}
		deficient := Mul(low, low.T())
		for _, tc := range []struct {
			a      *Matrix
			jitter float64
		}{{spd, 0}, {spd, 1e-6}, {deficient, 1e-3}, {deficient, 0}} {
			got, want := NewMatrix(n, n), NewMatrix(n, n)
			for i := range got.Data {
				got.Data[i], want.Data[i] = 99, 99
			}
			gotErr, wantErr := CholeskyInto(tc.a, got, tc.jitter), choleskyRef(tc.a, want, tc.jitter)
			if gotErr != wantErr {
				t.Fatalf("n=%d jitter=%g: err %v, single-row loop %v", n, tc.jitter, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			for i, v := range want.Data {
				if !sameBits(got.Data[i], v) {
					t.Fatalf("n=%d jitter=%g: factor differs at (%d,%d): %v vs %v", n, tc.jitter, i/n, i%n, got.Data[i], v)
				}
			}
		}
		if n > 2 {
			if err := CholeskyInto(deficient, NewMatrix(n, n), 0); err != ErrNotPositiveDefinite {
				t.Fatalf("n=%d: rank-2 matrix factored without jitter: %v", n, err)
			}
		}
	}
}

func TestSolveLower2IntoBitwiseSolveLowerInto(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 2, 3, 4, 5, 8, 17, 64, 65, 192} {
		l, err := Cholesky(randSPD(n, rng))
		if err != nil {
			t.Fatalf("n=%d cholesky: %v", n, err)
		}
		b0, b1 := randVec(rng, n), randVec(rng, n)
		w0, w1 := make([]float64, n), make([]float64, n)
		if err := SolveLowerInto(l, b0, w0); err != nil {
			t.Fatal(err)
		}
		if err := SolveLowerInto(l, b1, w1); err != nil {
			t.Fatal(err)
		}
		g0, g1 := make([]float64, n), make([]float64, n)
		if err := SolveLower2Into(l, b0, b1, g0, g1); err != nil {
			t.Fatalf("n=%d solve2: %v", n, err)
		}
		for i := range w0 {
			if !sameBits(g0[i], w0[i]) || !sameBits(g1[i], w1[i]) {
				t.Fatalf("n=%d: solve2 differs at %d: (%v,%v) vs (%v,%v)", n, i, g0[i], g1[i], w0[i], w1[i])
			}
		}
		// A zero pivot fails both systems where it fails one, and leaves
		// the rows above it solved.
		z := n / 2
		l.Set(z, z, 0)
		if err := SolveLower2Into(l, b0, b1, g0, g1); err != ErrSingular {
			t.Fatalf("n=%d: zero pivot at %d: got %v, want ErrSingular", n, z, err)
		}
		if err := SolveLowerInto(l, b0, w0); err != ErrSingular {
			t.Fatalf("n=%d: single solve on zero pivot: %v", n, err)
		}
		for i := 0; i < z; i++ {
			if !sameBits(g0[i], w0[i]) {
				t.Fatalf("n=%d: rows above the zero pivot differ at %d", n, i)
			}
		}
	}
	if err := SolveLower2Into(NewMatrix(3, 3), make([]float64, 3), make([]float64, 2), make([]float64, 3), make([]float64, 3)); err == nil {
		t.Fatal("solve2 accepted a short right-hand side")
	}
}
