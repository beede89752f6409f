package gp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"autotune/internal/linalg"
	"autotune/internal/numopt"
	"autotune/internal/stats"
)

// ErrNotFitted is returned by Predict before a successful Fit.
var ErrNotFitted = errors.New("gp: model not fitted")

// ErrNoData is returned by Fit with an empty training set.
var ErrNoData = errors.New("gp: empty training set")

// GP is an exact Gaussian-process regressor. Construct with New, then Fit
// with training data; Predict then returns posterior mean and variance.
// Observe absorbs a single new observation incrementally in O(n²) via a
// rank-1 Cholesky row update, against Fit's O(n³) refactorization.
// A GP is not safe for concurrent mutation; concurrent Predict after Fit
// is safe (prediction scratch comes from a pool, never the model).
type GP struct {
	kernel Kernel
	// noise is the observation noise variance added to the kernel
	// diagonal (in normalized-target units).
	noise float64

	// workers bounds goroutines for row-parallel gram construction and
	// PredictN (0 = GOMAXPROCS).
	workers int

	// Fitted state.
	x      [][]float64
	yRaw   []float64 // targets in caller units, as handed to Fit/Observe
	yNorm  []float64 // centered/scaled targets
	yMean  float64
	yScale float64
	chol   *linalg.Matrix
	alpha  []float64
	fitted bool

	// Incremental-path caches. gram is K + noise·I for gramX under
	// hyperSig (kernel hyperparameters plus noise); it lets a growing
	// training set re-evaluate only the rows of configurations it has
	// never seen (Fit prefix reuse) and lets Observe append a single row.
	// jitter is the diagonal jitter the last factorization needed; the
	// bordered row's diagonal must include it to stay consistent with chol.
	gram     *linalg.Matrix
	gramX    [][]float64
	jitter   float64
	hyperSig []float64

	// d2 caches squared pairwise distances for d2X. Distances depend only
	// on the points, not the hyperparameters, so stationary kernels (see
	// stationaryFunc) can re-derive the gram for every hyperparameter
	// candidate FitHyper tries without touching the inputs again.
	d2  *linalg.Matrix
	d2X [][]float64

	// Reusable scratch for Fit/Observe (safe: mutation is single-threaded
	// by contract; Predict never touches these).
	krow         []float64
	d2row        []float64
	solveScratch []float64

	hyperEvals int // see HyperEvals
}

// New returns a GP with the given kernel and observation-noise variance.
// A noise of 0 is raised to a small floor for numerical stability.
func New(kernel Kernel, noise float64) *GP {
	if noise < 1e-10 {
		noise = 1e-10
	}
	return &GP{kernel: kernel, noise: noise}
}

// Kernel returns the model's kernel (live; mutating it invalidates the fit).
func (g *GP) Kernel() Kernel { return g.kernel }

// Noise returns the observation-noise variance.
func (g *GP) Noise() float64 { return g.noise }

// SetNoise updates the observation-noise variance; takes effect on next Fit.
func (g *GP) SetNoise(v float64) {
	if v < 1e-10 {
		v = 1e-10
	}
	g.noise = v
}

// SetWorkers bounds the goroutines used for row-parallel gram construction
// and batched prediction. 0 (the default) resolves to runtime.GOMAXPROCS(0);
// 1 disables parallelism. Every matrix element and output index is written
// by exactly one worker, so results are bitwise identical for any setting.
func (g *GP) SetWorkers(n int) { g.workers = n }

func (g *GP) effWorkers() int {
	if g.workers > 0 {
		return g.workers
	}
	return runtime.GOMAXPROCS(0)
}

// parallelRows invokes fill(i) for every i in [lo, hi), spreading rows
// across a bounded worker pool in strided order. Each call owns row i
// exclusively — including its mirror writes into column i — so every
// element has exactly one writer and the result is bitwise identical for
// any worker count. Worker panics are captured per worker and re-raised in
// the caller (lowest worker index first), preserving serial panic semantics.
func (g *GP) parallelRows(lo, hi int, fill func(i int)) {
	w := g.effWorkers()
	if w > hi-lo {
		w = hi - lo
	}
	if w <= 1 || hi-lo < 8 {
		for i := lo; i < hi; i++ {
			fill(i)
		}
		return
	}
	panics := make([]any, w)
	var wg sync.WaitGroup
	for wk := 0; wk < w; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer func() {
				if r := recover(); r != nil {
					panics[wk] = r
				}
				wg.Done()
			}()
			for i := lo + wk; i < hi; i += w {
				fill(i)
			}
		}(wk)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// growFloats resizes *buf to length n, reallocating with headroom only when
// capacity is exhausted. Contents are unspecified.
func growFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n, n+n/2+8)
	}
	*buf = (*buf)[:n]
	return *buf
}

// reshapeSquare returns an n×n matrix backed by m's storage when it has
// capacity, else a fresh one. Contents are unspecified.
func reshapeSquare(m *linalg.Matrix, n int) *linalg.Matrix {
	if m == nil || cap(m.Data) < n*n {
		return linalg.NewMatrix(n, n)
	}
	m.Rows, m.Cols = n, n
	m.Data = m.Data[:n*n]
	return m
}

// Fit conditions the GP on inputs x and targets y. Targets are internally
// centered and scaled to unit variance; predictions are returned in the
// original units. x rows are copied by reference and must not be mutated.
// When x extends the previous training set under unchanged hyperparameters,
// the cached gram matrix is reused and only the new configurations' kernel
// rows are evaluated. Target, factor, and gram storage are reused across
// calls, so refitting a model in a loop (FitHyper's objective) allocates
// only on growth.
func (g *GP) Fit(x [][]float64, y []float64) error {
	if len(x) == 0 || len(x) != len(y) {
		return fmt.Errorf("%w: %d inputs, %d targets", ErrNoData, len(x), len(y))
	}
	n := len(y)
	g.yMean = stats.Mean(y)
	g.yScale = stats.StdDev(y)
	if g.yScale == 0 || math.IsNaN(g.yScale) {
		g.yScale = 1
	}
	yNorm := growFloats(&g.yNorm, n)
	for i, v := range y {
		yNorm[i] = (v - g.yMean) / g.yScale
	}
	// Copy y into reused storage. When y aliases g.yRaw (Observe's
	// fallback appends to it in place) both slices share a backing start,
	// making the copy a no-op rather than a corruption.
	yRaw := growFloats(&g.yRaw, n)
	copy(yRaw, y)
	// Cap capacity so a later Observe append cannot scribble on the
	// caller's backing array.
	g.x = x[:len(x):len(x)]

	sig := append(g.kernel.Hyper(), g.noise)
	k := g.gramFor(x, sig)
	g.chol = reshapeSquare(g.chol, n)
	jit, err := linalg.CholeskyJitterInto(k, g.chol, 1e-3)
	if err != nil {
		g.fitted = false
		return fmt.Errorf("gp: fit: %w", err)
	}
	alpha := growFloats(&g.alpha, n)
	if err := linalg.CholeskySolveInto(g.chol, yNorm, alpha); err != nil {
		g.fitted = false
		return fmt.Errorf("gp: fit: %w", err)
	}
	g.gram, g.gramX, g.jitter, g.hyperSig = k, g.x, jit, sig
	g.fitted = true
	return nil
}

// gramFor builds K + noise·I for x. Three reuse tiers keep the hot loops
// cheap: (1) same points and hyperparameters — the cached matrix is
// returned as is; (2) changed hyperparameters over the same-size training
// set — the cached storage is refilled in place (FitHyper's per-candidate
// path); (3) a grown point set under unchanged hyperparameters — the cached
// block is copied and only new rows are evaluated. Stationary kernels read
// squared distances from the d² cache instead of re-touching the inputs,
// and row filling is spread across the worker pool (see parallelRows for
// why that stays bitwise-deterministic).
func (g *GP) gramFor(x [][]float64, sig []float64) *linalg.Matrix {
	n := len(x)
	reuse := 0
	if g.gram != nil && sameVec(g.hyperSig, sig) && g.gram.Rows <= n {
		reuse = g.gram.Rows
		for i := 0; i < reuse; i++ {
			if !sameRow(g.gramX[i], x[i]) {
				reuse = 0
				break
			}
		}
	}
	if reuse == n && g.gram.Rows == n {
		return g.gram
	}
	var k *linalg.Matrix
	if reuse > 0 {
		k = linalg.NewMatrix(n, n)
		for i := 0; i < reuse; i++ {
			copy(k.Row(i)[:reuse], g.gram.Row(i))
		}
	} else {
		// Overwriting the cached storage invalidates it until the caller
		// re-registers it on success; clear the signature so a failed
		// factorization cannot leave a stale cache behind.
		k = reshapeSquare(g.gram, n)
		g.gram, g.gramX, g.hyperSig = nil, nil, nil
	}
	f, stationary := stationaryFunc(g.kernel)
	if stationary {
		d2 := g.d2For(x)
		g.parallelRows(reuse, n, func(i int) {
			row := k.Row(i)
			d2row := d2.Row(i)
			for j := 0; j <= i; j++ {
				v := f(d2row[j])
				row[j] = v
				k.Set(j, i, v)
			}
			row[i] += g.noise
		})
	} else {
		g.parallelRows(reuse, n, func(i int) {
			row := k.Row(i)
			for j := 0; j <= i; j++ {
				v := g.kernel.Eval(x[i], x[j])
				row[j] = v
				k.Set(j, i, v)
			}
			row[i] += g.noise
		})
	}
	return k
}

// d2For returns the squared-distance matrix for x, maintained with the same
// prefix-reuse discipline as the gram cache but keyed on points alone —
// hyperparameter changes never invalidate it, which is what makes FitHyper's
// per-candidate gram rebuilds O(n²) kernel evaluations with no distance work.
func (g *GP) d2For(x [][]float64) *linalg.Matrix {
	n := len(x)
	reuse := 0
	if g.d2 != nil && g.d2.Rows <= n {
		reuse = g.d2.Rows
		for i := 0; i < reuse; i++ {
			if !sameRow(g.d2X[i], x[i]) {
				reuse = 0
				break
			}
		}
	}
	if reuse == n && g.d2.Rows == n {
		return g.d2
	}
	var d2 *linalg.Matrix
	if reuse > 0 {
		d2 = linalg.NewMatrix(n, n)
		for i := 0; i < reuse; i++ {
			copy(d2.Row(i)[:reuse], g.d2.Row(i))
		}
	} else {
		d2 = reshapeSquare(g.d2, n)
	}
	g.parallelRows(reuse, n, func(i int) {
		row := d2.Row(i)
		for j := 0; j <= i; j++ {
			v := sqDist(x[i], x[j])
			row[j] = v
			d2.Set(j, i, v)
		}
	})
	g.d2, g.d2X = d2, x
	return d2
}

// sameVec reports exact element equality; encodings are deterministic, so
// re-encoded configurations hit this bitwise.
func sameVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameRow is sameVec with a pointer-identity fast path: cached training
// rows are usually the very same slices, so prefix checks cost O(1) per row
// instead of O(d).
func sameRow(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	return sameVec(a, b)
}

// rowsMatch reports whether two point sets are the same rows (sameRow-wise).
func rowsMatch(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameRow(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Observe conditions the fitted GP on one additional observation
// incrementally: the cached gram matrix gains one kernel row (n kernel
// evaluations) and the Cholesky factor is extended with a rank-1 row
// update, so the whole absorption costs O(n²) instead of Fit's O(n³)
// refactorization. Target normalization and alpha are recomputed exactly
// as Fit would, so after any number of Observes the model matches a full
// Fit on the same data up to floating-point roundoff. If the model is not
// fitted, hyperparameters changed since the last fit, or the bordered
// matrix is not numerically SPD, it falls back to a full Fit transparently.
// The gram, factor, and d² matrices grow in place, so an Observe at history
// n costs amortized O(1) allocations.
func (g *GP) Observe(x []float64, y float64) error {
	if !g.fitted || g.gram == nil ||
		!sameVec(g.hyperSig, append(g.kernel.Hyper(), g.noise)) {
		return g.Fit(append(g.x, x), append(g.yRaw, y))
	}
	n := len(g.x)
	krow := growFloats(&g.krow, n)
	f, stationary := stationaryFunc(g.kernel)
	var d2row []float64
	if stationary {
		d2row = growFloats(&g.d2row, n)
		for i, xi := range g.x {
			d := sqDist(xi, x)
			d2row[i] = d
			krow[i] = f(d)
		}
	} else {
		for i, xi := range g.x {
			krow[i] = g.kernel.Eval(xi, x)
		}
	}
	knn := g.kernel.Eval(x, x) + g.noise
	scratch := growFloats(&g.solveScratch, n)
	if err := linalg.CholUpdateRowInPlace(g.chol, krow, knn+g.jitter, scratch); err != nil {
		// The bordered system lost positive definiteness under the cached
		// jitter (near-duplicate point, drifting conditioning): refit from
		// scratch, letting the jittered factorization pick a fresh jitter.
		return g.Fit(append(g.x, x), append(g.yRaw, y))
	}
	g.gram.GrowSquare()
	for i := 0; i < n; i++ {
		g.gram.Row(i)[n] = krow[i]
	}
	last := g.gram.Row(n)
	copy(last[:n], krow)
	last[n] = knn
	// Extend the d² cache only when it exactly covers the previous
	// training set; otherwise leave it to rebuild lazily.
	d2Extended := false
	if stationary && g.d2 != nil && g.d2.Rows == n && rowsMatch(g.d2X, g.x) {
		g.d2.GrowSquare()
		for i := 0; i < n; i++ {
			g.d2.Row(i)[n] = d2row[i]
		}
		dlast := g.d2.Row(n)
		copy(dlast[:n], d2row)
		dlast[n] = 0
		d2Extended = true
	}
	g.x = append(g.x, x)
	g.gramX = g.x
	if d2Extended {
		g.d2X = g.x
	}
	g.yRaw = append(g.yRaw, y)
	// Renormalize and recompute alpha — O(n²), the same arithmetic Fit
	// performs, keeping incremental and full paths numerically aligned.
	g.yMean = stats.Mean(g.yRaw)
	g.yScale = stats.StdDev(g.yRaw)
	if g.yScale == 0 || math.IsNaN(g.yScale) {
		g.yScale = 1
	}
	yNorm := growFloats(&g.yNorm, n+1)
	for i, v := range g.yRaw {
		yNorm[i] = (v - g.yMean) / g.yScale
	}
	alpha := growFloats(&g.alpha, n+1)
	if err := linalg.CholeskySolveInto(g.chol, yNorm, alpha); err != nil {
		// The grown factor is singular after all: rebuild everything.
		return g.Fit(g.x, g.yRaw)
	}
	return nil
}

// Clone returns an independent deep copy of the model — kernel, caches,
// and fitted state — so callers can fantasize observations (constant-liar
// batching) with Observe without touching the original. Training input
// rows are shared read-only; the d² cache and scratch buffers are not
// cloned (they rebuild lazily).
func (g *GP) Clone() *GP {
	c := &GP{
		kernel:  g.kernel.Clone(),
		noise:   g.noise,
		workers: g.workers,
		yMean:   g.yMean,
		yScale:  g.yScale,
		jitter:  g.jitter,
		fitted:  g.fitted,
	}
	c.x = append([][]float64(nil), g.x...)
	c.gramX = append([][]float64(nil), g.gramX...)
	c.yRaw = append([]float64(nil), g.yRaw...)
	c.yNorm = append([]float64(nil), g.yNorm...)
	c.alpha = append([]float64(nil), g.alpha...)
	c.hyperSig = append([]float64(nil), g.hyperSig...)
	if g.chol != nil {
		c.chol = g.chol.Clone()
	}
	if g.gram != nil {
		c.gram = g.gram.Clone()
	}
	return c
}

// MinY returns the smallest raw (caller-unit) target the model is
// conditioned on, or 0 before a successful Fit. For a minimizing surrogate
// this is the incumbent in model units.
func (g *GP) MinY() float64 {
	if len(g.yRaw) == 0 {
		return 0
	}
	m := g.yRaw[0]
	for _, v := range g.yRaw[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Predict returns the posterior mean and variance at x. Variance is the
// latent-function variance (without observation noise), floored at zero.
// Scratch comes from a pooled workspace, so a warm Predict performs zero
// heap allocations; see PredictWS to manage the workspace explicitly.
func (g *GP) Predict(x []float64) (mean, variance float64, err error) {
	// Deferred so a panicking kernel (dimension mismatch) cannot leak the
	// workspace; an open-coded defer costs zero allocations.
	ws := wsPool.Get().(*Workspace)
	defer wsPool.Put(ws)
	return g.PredictWS(ws, x)
}

// PredictWS is Predict with a caller-owned workspace, for hot loops that
// want to keep scratch out of the pool entirely. Safe to call concurrently
// after Fit as long as each goroutine uses its own workspace.
//
//autolint:hotpath
func (g *GP) PredictWS(ws *Workspace, x []float64) (mean, variance float64, err error) {
	if !g.fitted {
		return 0, 0, ErrNotFitted
	}
	n := len(g.x)
	ws.ensure(n)
	kstar := ws.kstar[:n]
	for i := 0; i < n; i++ {
		kstar[i] = g.kernel.Eval(g.x[i], x)
	}
	muNorm := linalg.Dot(kstar, g.alpha)
	v := ws.v[:n]
	if err := linalg.SolveLowerInto(g.chol, kstar, v); err != nil {
		return 0, 0, fmt.Errorf("gp: predict: %w", err)
	}
	mean, variance = g.posterior(x, muNorm, v)
	return mean, variance, nil
}

// posterior maps a normalized mean and the solved L⁻¹k* of query x to the
// caller-unit mean and the zero-floored latent variance.
func (g *GP) posterior(x []float64, muNorm float64, v []float64) (mean, variance float64) {
	varNorm := g.kernel.Eval(x, x) - linalg.Dot(v, v)
	if varNorm < 0 {
		varNorm = 0
	}
	return muNorm*g.yScale + g.yMean, varNorm * g.yScale * g.yScale
}

// predictStride scores xs[start], xs[start+step], ... into mean and
// variance, two points at a time: the pair shares every load of alpha and
// of the factor's rows (linalg.Dot2, SolveLower2Into), and each output is
// bitwise what PredictWS returns for that point. It returns the lowest
// failing index, or -1.
//
//autolint:hotpath
func (g *GP) predictStride(ws *Workspace, xs [][]float64, mean, variance []float64, start, step int) (int, error) {
	n := len(g.x)
	ws.ensure(n)
	k0, k1, v0, v1 := ws.kstar[:n], ws.kstar1[:n], ws.v[:n], ws.v1[:n]
	i := start
	for ; i+step < len(xs); i += 2 * step {
		x0, x1 := xs[i], xs[i+step]
		for j, xj := range g.x {
			k0[j] = g.kernel.Eval(xj, x0)
			k1[j] = g.kernel.Eval(xj, x1)
		}
		mu0, mu1 := linalg.Dot2(k0, k1, g.alpha)
		if err := linalg.SolveLower2Into(g.chol, k0, k1, v0, v1); err != nil {
			return i, fmt.Errorf("gp: predict: %w", err)
		}
		mean[i], variance[i] = g.posterior(x0, mu0, v0)
		mean[i+step], variance[i+step] = g.posterior(x1, mu1, v1)
	}
	if i < len(xs) {
		m, v, err := g.PredictWS(ws, xs[i])
		if err != nil {
			return i, err
		}
		mean[i], variance[i] = m, v
	}
	return -1, nil
}

// PredictN computes posterior means and variances for a batch of query
// points, writing into mean and variance (each at least len(xs) long).
// Points are spread across the worker pool and scored in pairs (see
// predictStride); every output index is written by exactly one worker, so
// results are bitwise identical to calling Predict per point, for any
// worker count. On error the lowest-index failure is returned.
func (g *GP) PredictN(xs [][]float64, mean, variance []float64) error {
	if len(mean) < len(xs) || len(variance) < len(xs) {
		return fmt.Errorf("gp: predictn: %d points but %d/%d outputs", len(xs), len(mean), len(variance))
	}
	if !g.fitted {
		return ErrNotFitted
	}
	w := g.effWorkers()
	if w > len(xs) {
		w = len(xs)
	}
	if w <= 1 || len(xs) < 8 {
		ws := wsPool.Get().(*Workspace)
		defer wsPool.Put(ws)
		_, err := g.predictStride(ws, xs, mean, variance, 0, 1)
		return err
	}
	type wkErr struct {
		idx int
		err error
	}
	errs := make([]wkErr, w)
	panics := make([]any, w)
	var wg sync.WaitGroup
	for wk := 0; wk < w; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer func() {
				if r := recover(); r != nil {
					panics[wk] = r
				}
				wg.Done()
			}()
			// Deferred Put: the worker's recover above re-raises panics on
			// the caller, and the workspace must return to the pool on that
			// unwind too.
			ws := wsPool.Get().(*Workspace)
			defer wsPool.Put(ws)
			// Strided indices ascend, so a worker's first failure is its
			// lowest; the reduction below picks the global lowest.
			idx, err := g.predictStride(ws, xs, mean, variance, wk, w)
			errs[wk] = wkErr{idx: idx, err: err}
		}(wk)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	var first *wkErr
	for wk := range errs {
		e := &errs[wk]
		if e.err != nil && (first == nil || e.idx < first.idx) {
			first = e
		}
	}
	if first != nil {
		return first.err
	}
	return nil
}

// SampleAt draws one sample of the posterior at a finite set of points,
// using rng. Used for Thompson-style acquisition. The per-point solves run
// through a pooled workspace and one flat matrix instead of a slice
// allocation per point.
func (g *GP) SampleAt(points [][]float64, rng *rand.Rand) ([]float64, error) {
	if !g.fitted {
		return nil, ErrNotFitted
	}
	m := len(points)
	n := len(g.x)
	mu := make([]float64, m)
	// Posterior covariance between the points.
	cov := linalg.NewMatrix(m, m)
	vs := linalg.NewMatrix(m, n)
	ws := wsPool.Get().(*Workspace)
	defer wsPool.Put(ws)
	ws.ensure(n)
	for i, p := range points {
		kstar := ws.kstar[:n]
		for j := 0; j < n; j++ {
			kstar[j] = g.kernel.Eval(g.x[j], p)
		}
		mu[i] = linalg.Dot(kstar, g.alpha)
		if err := linalg.SolveLowerInto(g.chol, kstar, vs.Row(i)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < m; i++ {
		for j := i; j < m; j++ {
			c := g.kernel.Eval(points[i], points[j]) - linalg.Dot(vs.Row(i), vs.Row(j))
			cov.Set(i, j, c)
			cov.Set(j, i, c)
		}
	}
	l, _, err := linalg.CholeskyJitter(cov, 1e-2)
	if err != nil {
		return nil, fmt.Errorf("gp: sample: %w", err)
	}
	z := make([]float64, m)
	for i := range z {
		z[i] = rng.NormFloat64()
	}
	sample := l.MulVec(z)
	out := make([]float64, m)
	for i := range out {
		out[i] = (mu[i]+sample[i])*g.yScale + g.yMean
	}
	return out, nil
}

// LogMarginalLikelihood returns the log marginal likelihood of the fitted
// data under the current hyperparameters (on normalized targets).
func (g *GP) LogMarginalLikelihood() (float64, error) {
	if !g.fitted {
		return 0, ErrNotFitted
	}
	n := float64(len(g.x))
	dataFit := -0.5 * linalg.Dot(g.yNorm, g.alpha)
	complexity := -0.5 * linalg.LogDetFromChol(g.chol)
	norm := -0.5 * n * math.Log(2*math.Pi)
	return dataFit + complexity + norm, nil
}

// FitHyper fits the GP and then optimizes kernel hyperparameters (and the
// noise variance) by maximizing log marginal likelihood with restarts
// Nelder-Mead searches in log space: the current hyperparameters plus
// `restarts` random perturbations. The best parameters are installed and
// the GP refitted. All candidate evaluations share one trial model whose
// gram, factor, and d² storage persist across the search, so each
// Nelder-Mead step costs an in-place gram refill plus a factorization and
// no fresh distance work or allocation.
//
// Stopping rule: a search ends when its simplex's likelihood values lie
// within 1e-3 nats of each other (a likelihood ratio of 1.001 between best
// and worst vertex), or after 120 iterations. numopt's default tolerance of
// 1e-9 is never met by a quantity of magnitude ~n: every search would run
// its 120 iterations, about 200 O(n³) factorizations, to move the likelihood
// by hundredths of a nat (HyperEvals counts what is spent). The spread says
// the simplex sits on level ground, not on a peak: a search can stop on a
// plateau (tiny noise, which the likelihood does not feel) that 120
// iterations would have wandered off. Callers that refit periodically, as
// bo does, resume from there with a fresh simplex.
func (g *GP) FitHyper(x [][]float64, y []float64, restarts int, rng *rand.Rand) error {
	if err := g.Fit(x, y); err != nil {
		return err
	}
	base := append(g.kernel.Hyper(), math.Log(g.noise))
	trial := &GP{kernel: g.kernel.Clone(), noise: g.noise, workers: g.workers}
	obj := func(lp []float64) float64 {
		for _, v := range lp {
			if v < -12 || v > 8 { // keep hyperparameters in a sane range
				return math.Inf(1)
			}
		}
		trial.kernel.SetHyper(lp[:len(lp)-1])
		trial.noise = math.Exp(lp[len(lp)-1])
		if trial.noise < 1e-10 {
			trial.noise = 1e-10
		}
		g.hyperEvals++
		if err := trial.Fit(x, y); err != nil {
			return math.Inf(1)
		}
		lml, err := trial.LogMarginalLikelihood()
		if err != nil || math.IsNaN(lml) {
			return math.Inf(1)
		}
		return -lml
	}
	bestLP := append([]float64(nil), base...)
	bestVal := obj(base)
	starts := [][]float64{base}
	for r := 0; r < restarts; r++ {
		s := make([]float64, len(base))
		for i := range s {
			s[i] = base[i] + rng.NormFloat64()*1.5
		}
		starts = append(starts, s)
	}
	for _, s := range starts {
		lp, val := numopt.NelderMead(obj, s, numopt.Options{MaxIter: 120, Scale: 0.3, Tol: 1e-3})
		if val < bestVal {
			bestVal, bestLP = val, lp
		}
	}
	if !math.IsInf(bestVal, 1) {
		g.kernel.SetHyper(bestLP[:len(bestLP)-1])
		g.noise = math.Exp(bestLP[len(bestLP)-1])
		if g.noise < 1e-10 {
			g.noise = 1e-10
		}
	}
	return g.Fit(x, y)
}

// HyperEvals returns how many log-marginal-likelihood evaluations — each a
// gram refill plus an O(n³) factorization — FitHyper has run on this model.
// Candidates the range check rejects cost nothing and are not counted. A
// pure function of data, seed and stopping rule: a gate where timings are noise.
func (g *GP) HyperEvals() int { return g.hyperEvals }

// N returns the number of training points (0 before Fit).
func (g *GP) N() int { return len(g.x) }
