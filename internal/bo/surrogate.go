package bo

import (
	"fmt"
	"math"
	"math/rand"

	"autotune/internal/forest"
	"autotune/internal/gp"
)

// surrogate.go is the surrogate tier layer: the policy enum, the model
// contracts the acquisition search runs against, and the random-forest
// deep-history surrogate. Tier selection itself lives in resolveTier; the
// switching mechanics are in bo.go's ensureModel/refit.

// SurrogatePolicy selects which surrogate serves Suggest. The default,
// SurrogateAuto, switches by history size: the dense incremental GP up to
// DenseMax observations, the subset-of-data sparse GP up to SparseMax,
// and the random forest beyond — each switch recorded in Stats(). The
// remaining values pin one tier as an escape hatch.
type SurrogatePolicy int

const (
	// SurrogateAuto switches dense → sparse → forest by history size.
	SurrogateAuto SurrogatePolicy = iota
	// SurrogateDense pins the exact incremental GP regardless of size.
	SurrogateDense
	// SurrogateSparse pins the inducing-point sparse GP.
	SurrogateSparse
	// SurrogateLocal pins TuRBO-style local trust-region GPs (trust.go).
	SurrogateLocal
	// SurrogateForest pins the random-forest surrogate.
	SurrogateForest
)

// String names the policy for stats and CLI output.
func (p SurrogatePolicy) String() string {
	switch p {
	case SurrogateDense:
		return "dense"
	case SurrogateSparse:
		return "sparse"
	case SurrogateLocal:
		return "local"
	case SurrogateForest:
		return "forest"
	default:
		return "auto"
	}
}

// ParseSurrogate maps a policy name (as printed by String) back to the
// enum; unknown names return SurrogateAuto and false.
func ParseSurrogate(name string) (SurrogatePolicy, bool) {
	switch name {
	case "auto", "":
		return SurrogateAuto, true
	case "dense":
		return SurrogateDense, true
	case "sparse":
		return SurrogateSparse, true
	case "local":
		return SurrogateLocal, true
	case "forest":
		return SurrogateForest, true
	}
	return SurrogateAuto, false
}

// TierSwitch records one surrogate tier change: the history size at which
// it fired and the tiers involved. Switch points are a pure function of
// (history length, Options), so they are identical across runs, worker
// counts, and resume.
type TierSwitch struct {
	N        int
	From, To string
}

// surModel is the contract the acquisition search and the constant-liar
// batch path need from a surrogate. *gp.GP, *gp.SparseGP, and *forestSur
// all satisfy it.
type surModel interface {
	Observe(x []float64, y float64) error
	Predict(x []float64) (mean, variance float64, err error)
	PredictN(xs [][]float64, mean, variance []float64) error
	MinY() float64
}

// gpModel extends surModel with the fitting entry points the GP-backed
// tiers (dense and sparse) share, so refit/ensureModel treat them
// uniformly — which is what makes "sparse == dense below the budget" a
// code-path identity rather than a numerical coincidence.
type gpModel interface {
	surModel
	Fit(x [][]float64, y []float64) error
	FitHyper(x [][]float64, y []float64, restarts int, rng *rand.Rand) error
	HyperEvals() int
	SetWorkers(n int)
}

// cloneSur deep-copies a surrogate for constant-liar fantasies.
func cloneSur(m surModel) surModel {
	switch m := m.(type) {
	case *gp.GP:
		return m.Clone()
	case *gp.SparseGP:
		return m.Clone()
	case *forestSur:
		return m.clone()
	}
	return nil
}

// resolveTier maps the current history size to a concrete tier under the
// configured policy. Auto thresholds compare against the full history
// length, so the switch points are deterministic in n.
func (b *BO) resolveTier(n int) SurrogatePolicy {
	switch b.opts.Surrogate {
	case SurrogateDense, SurrogateSparse, SurrogateLocal, SurrogateForest:
		return b.opts.Surrogate
	}
	switch {
	case n <= b.opts.DenseMax:
		return SurrogateDense
	case n <= b.opts.SparseMax:
		return SurrogateSparse
	default:
		return SurrogateForest
	}
}

// surrogateSeed returns the seed that decorrelates sparse selection and
// forest bootstraps across studies. NewWith draws it from the optimizer rng
// exactly once, eagerly, so every tier consumes an identical rng prefix and
// runs remain bitwise reproducible; the lazy branch only covers BO values
// constructed without NewWith (zero-value embedding in tests).
func (b *BO) surrogateSeed() int64 {
	if !b.surSeeded {
		b.surSeed = b.rng.Int63()
		b.surSeeded = true
	}
	return b.surSeed
}

// forestSur is the deep-history surrogate: a random-forest regressor over
// the encoded history. Refits cost O(trees · n log n) and are amortized by
// cadence (every max(8, n/16) observations), so per-observation
// maintenance is O(trees · log n) — the across-tree variance supplies the
// exploration signal exactly as in SMAC.
type forestSur struct {
	xs [][]float64
	ys []float64

	model  *forest.Forest
	trees  int
	seed   int64
	refits int
	fitted int // history size the forest currently reflects

	// refitCounter points at the shared ForestRefits stat so clones made
	// for constant-liar fantasies do not skew the real counter.
	refitCounter *int
}

// forestMinVariance floors the across-tree variance so acquisition
// scores never treat a unanimous forest as perfectly certain.
const forestMinVariance = 1e-10

func newForestSur(trees int, seed int64, counter *int) *forestSur {
	if trees <= 0 {
		trees = 24
	}
	return &forestSur{trees: trees, seed: seed, refitCounter: counter}
}

// fit rebuilds the forest over the full recorded data. The bootstrap rng
// derives from (seed, refit index), never from the optimizer stream, so
// cadence changes cannot shift unrelated draws.
func (f *forestSur) fit() error {
	rng := rand.New(rand.NewSource(searchSeed(f.seed, f.refits)))
	m, err := forest.Fit(f.xs, f.ys, forest.Options{Trees: f.trees}, rng)
	if err != nil {
		return fmt.Errorf("bo: forest fit: %w", err)
	}
	f.model = m
	f.refits++
	f.fitted = len(f.xs)
	if f.refitCounter != nil {
		*f.refitCounter++
	}
	return nil
}

// refitEvery is the refit cadence at the current size: frequent while the
// forest is small, amortized to n/16 as history deepens.
func (f *forestSur) refitEvery() int {
	e := f.fitted / 16
	if e < 8 {
		e = 8
	}
	return e
}

// Fit replaces the training data and rebuilds immediately.
func (f *forestSur) Fit(xs [][]float64, ys []float64) error {
	f.xs = append(f.xs[:0], xs...)
	f.ys = append(f.ys[:0], ys...)
	return f.fit()
}

// Observe appends one observation; the forest refits on cadence rather
// than per observation.
func (f *forestSur) Observe(x []float64, y float64) error {
	f.xs = append(f.xs, x)
	f.ys = append(f.ys, y)
	if f.model == nil || len(f.xs)-f.fitted >= f.refitEvery() {
		return f.fit()
	}
	return nil
}

// Predict returns the forest mean and floored across-tree variance.
//
//autolint:hotpath
func (f *forestSur) Predict(x []float64) (float64, float64, error) {
	if f.model == nil {
		return 0, 0, gp.ErrNotFitted
	}
	mean, v := f.model.Predict(x)
	if v < forestMinVariance {
		v = forestMinVariance
	}
	return mean, v, nil
}

// PredictN scores a batch serially: a forest lookup is O(trees · depth)
// with no shared scratch, so there is nothing to parallelize at this size.
//
//autolint:hotpath
func (f *forestSur) PredictN(xs [][]float64, mean, vari []float64) error {
	if f.model == nil {
		return gp.ErrNotFitted
	}
	if len(mean) < len(xs) || len(vari) < len(xs) {
		return fmt.Errorf("bo: forest predictn: %d points but %d/%d outputs", len(xs), len(mean), len(vari))
	}
	for i, x := range xs {
		m, v := f.model.Predict(x)
		if v < forestMinVariance {
			v = forestMinVariance
		}
		mean[i], vari[i] = m, v
	}
	return nil
}

// MinY is the incumbent over everything recorded, fitted or pending.
func (f *forestSur) MinY() float64 {
	if len(f.ys) == 0 {
		return 0
	}
	best := f.ys[0]
	for _, y := range f.ys[1:] {
		if y < best {
			best = y
		}
	}
	return best
}

// clone shares the fitted forest (immutable once built) and copies the
// data slices, so fantasy observes on the clone cannot leak back.
func (f *forestSur) clone() *forestSur {
	c := *f
	c.xs = append([][]float64(nil), f.xs...)
	c.ys = append([]float64(nil), f.ys...)
	c.refitCounter = nil
	return &c
}

// modelUnitY maps a raw objective value into model units under the
// optimizer's current warp (clamping is handled by refit; incremental
// paths reject non-finite values before calling this).
func (b *BO) modelUnitY(v float64) float64 {
	if b.opts.LogY {
		return math.Log(v + b.logShift + 1e-12)
	}
	return v
}
