package gp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func perfTrainingData(n, d int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = make([]float64, d)
		s := 0.0
		for j := range xs[i] {
			xs[i][j] = rng.Float64()
			s += xs[i][j] * xs[i][j]
		}
		ys[i] = s + 0.05*rng.NormFloat64()
	}
	return xs, ys
}

func perfKernels() map[string]Kernel {
	return map[string]Kernel{
		"scaled-matern": Scale(1, NewMatern(2.5, 0.2)),
		"rbf":           NewRBF(0.3),
		"sum":           &Sum{A: NewRBF(0.5), B: &Constant{Value: 0.1}},
		"linear-mix":    &Sum{A: &Linear{Variance: 0.5}, B: NewMatern(1.5, 0.4)},
	}
}

// TestStationaryFuncMatchesEval pins the d²-cache fast path to the exact
// arithmetic of Kernel.Eval: any drift would silently change every gram
// matrix built from cached distances.
func TestStationaryFuncMatchesEval(t *testing.T) {
	xs, _ := perfTrainingData(40, 6, 3)
	for name, k := range perfKernels() {
		f, ok := stationaryFunc(k)
		if name == "linear-mix" {
			if ok {
				t.Fatalf("%s: linear kernel must not report stationary", name)
			}
			continue
		}
		if !ok {
			t.Fatalf("%s: expected stationary fast path", name)
		}
		for i := range xs {
			for j := range xs {
				want := k.Eval(xs[i], xs[j])
				got := f(sqDist(xs[i], xs[j]))
				if got != want {
					t.Fatalf("%s: f(d²) = %v, Eval = %v at (%d,%d)", name, got, want, i, j)
				}
			}
		}
	}
}

// TestParallelGramMatchesSerial is the bitwise-determinism property for
// row-parallel gram construction: any worker count must produce exactly the
// model a serial build produces, because each matrix element has one writer.
func TestParallelGramMatchesSerial(t *testing.T) {
	xs, ys := perfTrainingData(60, 8, 7)
	probe, _ := perfTrainingData(20, 8, 8)
	for name, k := range perfKernels() {
		serial := New(k.Clone(), 1e-6)
		serial.SetWorkers(1)
		if err := serial.Fit(xs, ys); err != nil {
			t.Fatalf("%s serial fit: %v", name, err)
		}
		for _, workers := range []int{2, 4, 7} {
			par := New(k.Clone(), 1e-6)
			par.SetWorkers(workers)
			if err := par.Fit(xs, ys); err != nil {
				t.Fatalf("%s workers=%d fit: %v", name, workers, err)
			}
			for i, v := range serial.gram.Data {
				if par.gram.Data[i] != v {
					t.Fatalf("%s workers=%d: gram differs at %d", name, workers, i)
				}
			}
			for _, p := range probe {
				m1, v1, err1 := serial.Predict(p)
				m2, v2, err2 := par.Predict(p)
				if err1 != nil || err2 != nil {
					t.Fatalf("%s predict: %v %v", name, err1, err2)
				}
				if m1 != m2 || v1 != v2 {
					t.Fatalf("%s workers=%d: prediction differs: (%v,%v) vs (%v,%v)",
						name, workers, m1, v1, m2, v2)
				}
			}
		}
	}
}

// TestPredictNMatchesPredict checks the batched path — which scores points
// in pairs — bit for bit against per-point Predict, for batch sizes on both
// sides of the serial cutoff (8), odd and even per-worker strides, and
// serial and parallel worker counts.
func TestPredictNMatchesPredict(t *testing.T) {
	xs, ys := perfTrainingData(40, 6, 31)
	probe, _ := perfTrainingData(65, 6, 32)
	g := New(Scale(1, NewMatern(2.5, 0.2)), 1e-6)
	if err := g.Fit(xs, ys); err != nil {
		t.Fatalf("fit: %v", err)
	}
	wantM := make([]float64, len(probe))
	wantV := make([]float64, len(probe))
	for i, p := range probe {
		m, v, err := g.Predict(p)
		if err != nil {
			t.Fatalf("predict %d: %v", i, err)
		}
		wantM[i], wantV[i] = m, v
	}
	for _, batch := range []int{1, 2, 7, 8, 9, 64, 65} {
		for _, workers := range []int{1, 2, 3} {
			g.SetWorkers(workers)
			gotM := make([]float64, batch)
			gotV := make([]float64, batch)
			if err := g.PredictN(probe[:batch], gotM, gotV); err != nil {
				t.Fatalf("predictn batch=%d workers=%d: %v", batch, workers, err)
			}
			for i := range gotM {
				if math.Float64bits(gotM[i]) != math.Float64bits(wantM[i]) || math.Float64bits(gotV[i]) != math.Float64bits(wantV[i]) {
					t.Fatalf("batch=%d workers=%d point %d: (%v,%v) vs (%v,%v)",
						batch, workers, i, gotM[i], gotV[i], wantM[i], wantV[i])
				}
			}
		}
	}
}

// TestPredictZeroAllocs pins the warm Predict path at zero heap
// allocations per call — the tentpole regression guard.
func TestPredictZeroAllocs(t *testing.T) {
	xs, ys := perfTrainingData(50, 8, 41)
	g := New(Scale(1, NewMatern(2.5, 0.2)), 1e-6)
	if err := g.Fit(xs, ys); err != nil {
		t.Fatalf("fit: %v", err)
	}
	x := xs[0]
	if _, _, err := g.Predict(x); err != nil { // warm the pool
		t.Fatalf("predict: %v", err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := g.Predict(x); err != nil {
			t.Fatalf("predict: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("gp.Predict allocates %v per warm call, want 0", allocs)
	}
}

// TestObserveMatchesFitAfterManySteps checks that a long chain of in-place
// incremental updates (grown gram/factor/d² storage) stays numerically
// aligned with a from-scratch fit.
func TestObserveMatchesFitAfterManySteps(t *testing.T) {
	xs, ys := perfTrainingData(40, 6, 51)
	inc := New(Scale(1, NewMatern(2.5, 0.2)), 1e-6)
	if err := inc.Fit(xs[:10], ys[:10]); err != nil {
		t.Fatalf("fit: %v", err)
	}
	for i := 10; i < len(xs); i++ {
		if err := inc.Observe(xs[i], ys[i]); err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
	}
	full := New(Scale(1, NewMatern(2.5, 0.2)), 1e-6)
	if err := full.Fit(xs, ys); err != nil {
		t.Fatalf("full fit: %v", err)
	}
	probe, _ := perfTrainingData(10, 6, 52)
	for _, p := range probe {
		m1, v1, _ := inc.Predict(p)
		m2, v2, _ := full.Predict(p)
		if diff := m1 - m2; diff > 1e-7 || diff < -1e-7 {
			t.Fatalf("mean drift %v", diff)
		}
		if diff := v1 - v2; diff > 1e-7 || diff < -1e-7 {
			t.Fatalf("variance drift %v", diff)
		}
	}
}

// Deep-history benchmarks: the dense rank-1 observe (O(n²)) and batched
// prediction (O(n) per point after the O(n²) solve cache) at the sizes the
// sparse tier exists for. Compare against BenchmarkSparseObserve to see the
// budget-bounded O(m²) path these costs motivate.
func BenchmarkDenseObserve(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		xs, ys := perfTrainingData(n+b.N+1, 6, 6)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := New(NewRBF(0.4), 1e-6)
			if err := g.Fit(xs[:n], ys[:n]); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.Observe(xs[n+i%(len(xs)-n)], ys[n+i%(len(xs)-n)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDensePredictN(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		xs, ys := perfTrainingData(n, 6, 6)
		probes, _ := perfTrainingData(256, 6, 7)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := New(NewRBF(0.4), 1e-6)
			if err := g.Fit(xs, ys); err != nil {
				b.Fatal(err)
			}
			mean := make([]float64, len(probes))
			vari := make([]float64, len(probes))
			if err := g.PredictN(probes, mean, vari); err != nil { // warm solve cache
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.PredictN(probes, mean, vari); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
