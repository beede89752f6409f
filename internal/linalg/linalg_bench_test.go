package linalg

import (
	"fmt"
	"math/rand"
	"testing"
)

// Micro-benchmarks for the kernels on the BO suggest path. Run with:
//
//	go test -bench 'BenchmarkCholesky|BenchmarkMul|BenchmarkCholUpdateRow' ./internal/linalg
//
// The sizes bracket realistic GP training-set sizes (64) through the
// large-history regime (512) the incremental path exists for, plus the
// deep-history sizes (1024, 4096) the sparse tier hands to the dense
// kernels as inducing-set problems.

var benchSizes = []int{64, 256, 512, 1024, 4096}

func BenchmarkCholesky(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			a := randSPD(n, rand.New(rand.NewSource(1)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Cholesky(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCholUpdateRow(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			a := randSPD(n+1, rng)
			sub := NewMatrix(n, n)
			for i := 0; i < n; i++ {
				copy(sub.Row(i), a.Row(i)[:n])
			}
			l, err := Cholesky(sub)
			if err != nil {
				b.Fatal(err)
			}
			k := make([]float64, n)
			for i := 0; i < n; i++ {
				k[i] = a.At(n, i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := CholUpdateRow(l, k, a.At(n, n)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMul(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			x, y := NewMatrix(n, n), NewMatrix(n, n)
			for i := range x.Data {
				x.Data[i] = rng.NormFloat64()
				y.Data[i] = rng.NormFloat64()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Mul(x, y)
			}
		})
	}
}

func BenchmarkSolveLower(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			l, err := Cholesky(randSPD(n, rng))
			if err != nil {
				b.Fatal(err)
			}
			v := make([]float64, n)
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := SolveLower(l, v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCholeskyInto times the factorization alone (no allocation) at
// the depth of a bo-study refit (192) and at DenseMax (512), where FitHyper
// calls it hundreds of times per refit.
func BenchmarkCholeskyInto(b *testing.B) {
	for _, n := range []int{192, 512} {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			a := randSPD(n, rand.New(rand.NewSource(1)))
			l := NewMatrix(n, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := CholeskyInto(a, l, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var dotSink float64

// BenchmarkDot2 puts one paired pass beside the two Dot calls it replaces.
func BenchmarkDot2(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x, y, z := randVec(rng, 192), randVec(rng, 192), randVec(rng, 192)
	b.Run("dot2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, t := Dot2(x, y, z)
			dotSink += s + t
		}
	})
	b.Run("dot-twice", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dotSink += Dot(x, z) + Dot(y, z)
		}
	})
}
