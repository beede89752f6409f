package gp

import (
	"math"
	"math/rand"
)

// sparse.go is the subset-of-data sparse tier: past a fixed inducing
// budget m, the model conditions on a deterministically chosen subset of
// the history instead of all n points, turning O(n²) observes and O(n²)
// memory into O(m²) while the full history stays available for incumbent
// tracking and periodic reselection. Below the budget the sparse model
// delegates every call to the inner exact GP, so "sparse == dense below
// the switch threshold" holds bitwise, not approximately.

// SparseStats counts how the inducing set has been maintained.
type SparseStats struct {
	// Absorbed is the number of observations rank-1-updated into the
	// inducing model (always, below budget; incumbent improvements above).
	Absorbed int
	// Skipped observations were recorded in the history but not absorbed;
	// they stay eligible for the next reselection.
	Skipped int
	// Rebuilds counts inducing-set reselections followed by a refit.
	Rebuilds int
}

// SparseGP is a subset-of-data approximation around an exact GP. It keeps
// the entire observation history (O(n·d) memory) but conditions the inner
// model on at most ~budget inducing points:
//
//   - While the history fits the budget the inner GP sees everything and
//     the sparse model is the dense model, same code path, same bits.
//   - Past the budget, observations that improve the incumbent are
//     absorbed with the same rank-1 Cholesky update the dense tier uses;
//     the rest are recorded in O(1) and wait for reselection.
//   - Every rebuildEvery observations past saturation the inducing set is
//     reselected from scratch — half exploitation (the lowest-y points,
//     which cluster where acquisition needs mean accuracy) and half
//     coverage (greedy farthest-point over the remainder, which keeps
//     variance calibrated far from the incumbent) — and the inner model
//     is refit in O(m³), amortized to O(m³/rebuildEvery) per observe.
//
// Selection is a pure function of (history, seed): greedy maximin with
// ties broken by a hash of (seed, candidate index), so two instances fed
// the same history always condition on the same subset.
type SparseGP struct {
	inner        *GP
	budget       int
	rebuildEvery int
	seed         int64

	xs [][]float64 // full history; rows are stored as given (not copied)
	ys []float64

	active       []int // history indices the inner model conditions on, absorb order
	sinceRebuild int
	stats        SparseStats

	// selection scratch, reused across rebuilds
	minD2  []float64
	chosen []bool
	selBuf []int
}

// NewSparse returns a sparse GP with the given inducing budget. budget <= 0
// defaults to 256. The seed decorrelates selection tie-breaks across
// studies; any fixed value is fine.
func NewSparse(kernel Kernel, noise float64, budget int, seed int64) *SparseGP {
	if budget <= 0 {
		budget = 256
	}
	every := budget / 2
	if every < 1 {
		every = 1
	}
	return &SparseGP{
		inner:        New(kernel, noise),
		budget:       budget,
		rebuildEvery: every,
		seed:         seed,
	}
}

// Kernel returns the inner model's kernel.
func (s *SparseGP) Kernel() Kernel { return s.inner.Kernel() }

// Noise returns the inner model's noise level.
func (s *SparseGP) Noise() float64 { return s.inner.Noise() }

// SetWorkers sets the inner model's gram/predict worker count.
func (s *SparseGP) SetWorkers(n int) { s.inner.SetWorkers(n) }

// N is the full history size (not the inducing-set size).
func (s *SparseGP) N() int { return len(s.xs) }

// ActiveN is the number of points the inner model currently conditions on.
func (s *SparseGP) ActiveN() int { return len(s.active) }

// Stats returns the absorb/skip/rebuild counters.
func (s *SparseGP) Stats() SparseStats { return s.stats }

// HyperEvals is the inner model's count of FitHyper likelihood evaluations.
func (s *SparseGP) HyperEvals() int { return s.inner.HyperEvals() }

// Fit replaces the history and rebuilds the inducing set. With
// len(x) <= budget this is exactly inner.Fit on the full data.
func (s *SparseGP) Fit(x [][]float64, y []float64) error {
	return s.fitWith(x, y, func(ax [][]float64, ay []float64) error {
		return s.inner.Fit(ax, ay)
	})
}

// FitHyper is Fit plus a hyperparameter search on the inducing subset.
// The rng draws exactly what the inner FitHyper draws, so below budget the
// consumption matches the dense tier's and bitwise equivalence holds.
func (s *SparseGP) FitHyper(x [][]float64, y []float64, restarts int, rng *rand.Rand) error {
	return s.fitWith(x, y, func(ax [][]float64, ay []float64) error {
		return s.inner.FitHyper(ax, ay, restarts, rng)
	})
}

func (s *SparseGP) fitWith(x [][]float64, y []float64, fit func([][]float64, []float64) error) error {
	s.xs = append(s.xs[:0], x...)
	s.ys = append(s.ys[:0], y...)
	s.sinceRebuild = 0
	if len(x) <= s.budget {
		s.active = s.active[:0]
		for i := range x {
			s.active = append(s.active, i)
		}
		return fit(x, y)
	}
	s.active = append(s.active[:0], s.selectInducing()...)
	ax, ay := s.gather(s.active)
	return fit(ax, ay)
}

// Observe appends one observation. Below budget it is the dense rank-1
// update; at budget, incumbent improvements are absorbed rank-1 and the
// rest recorded in O(1) until the next reselection.
func (s *SparseGP) Observe(x []float64, y float64) error {
	if len(s.xs) == 0 && s.inner.N() == 0 {
		s.xs = append(s.xs, x)
		s.ys = append(s.ys, y)
		s.active = append(s.active[:0], 0)
		return s.inner.Fit(s.xs[:1], s.ys[:1])
	}
	idx := len(s.xs)
	s.xs = append(s.xs, x)
	s.ys = append(s.ys, y)

	absorb := len(s.active) < s.budget || y < s.activeMinY()
	if absorb {
		if err := s.inner.Observe(x, y); err != nil {
			return err
		}
		s.active = append(s.active, idx)
		s.stats.Absorbed++
	} else {
		s.stats.Skipped++
	}

	if len(s.xs) > s.budget {
		s.sinceRebuild++
		if s.sinceRebuild >= s.rebuildEvery {
			return s.rebuild()
		}
	}
	return nil
}

// rebuild reselects the inducing set from the full history and refits the
// inner model when the selection changed.
func (s *SparseGP) rebuild() error {
	s.sinceRebuild = 0
	sel := s.selectInducing()
	s.stats.Rebuilds++
	if intsEqual(sel, s.active) {
		return nil
	}
	s.active = append(s.active[:0], sel...)
	ax, ay := s.gather(s.active)
	return s.inner.Fit(ax, ay)
}

// activeMinY is the lowest target among currently absorbed points; +Inf
// when nothing is absorbed.
func (s *SparseGP) activeMinY() float64 {
	best := math.Inf(1)
	for _, i := range s.active {
		if s.ys[i] < best {
			best = s.ys[i]
		}
	}
	return best
}

// gather copies the selected history rows into fresh header slices. The
// headers must be fresh each time: the inner Fit keeps the slice it is
// given for its gram-reuse identity checks, so recycling a buffer across
// rebuilds would make a stale gram look current.
func (s *SparseGP) gather(idx []int) ([][]float64, []float64) {
	ax := make([][]float64, 0, len(idx))
	ay := make([]float64, 0, len(idx))
	for _, i := range idx {
		ax = append(ax, s.xs[i])
		ay = append(ay, s.ys[i])
	}
	return ax, ay
}

// selectInducing picks the inducing subset deterministically: the
// incumbent plus the best-y half for exploitation, then greedy
// farthest-point (maximin d²) over the rest for coverage. Returned
// indices are sorted ascending so refits absorb in history order.
func (s *SparseGP) selectInducing() []int {
	n := len(s.xs)
	if n <= s.budget {
		sel := s.selBuf[:0]
		for i := 0; i < n; i++ {
			sel = append(sel, i)
		}
		s.selBuf = sel
		return sel
	}
	if cap(s.minD2) < n {
		s.minD2 = make([]float64, n)
		s.chosen = make([]bool, n)
	}
	minD2 := s.minD2[:n]
	chosen := s.chosen[:n]
	for i := range chosen {
		chosen[i] = false
		minD2[i] = math.Inf(1)
	}
	sel := s.selBuf[:0]

	// Exploitation half: lowest targets, lowest index on ties. Selection
	// by repeated scan keeps this allocation-free; budget is small.
	half := s.budget / 2
	if half < 1 {
		half = 1
	}
	for k := 0; k < half; k++ {
		pick := -1
		for i := 0; i < n; i++ {
			if chosen[i] {
				continue
			}
			if pick < 0 || s.ys[i] < s.ys[pick] {
				pick = i
			}
		}
		if pick < 0 {
			break
		}
		chosen[pick] = true
		sel = append(sel, pick)
		updateMinD2(minD2, chosen, s.xs, s.xs[pick])
	}

	// Coverage half: greedy maximin over the remainder. Ties broken by a
	// hash of (seed, index) so the choice is deterministic but
	// decorrelated across studies.
	for len(sel) < s.budget {
		pick := -1
		var pickD2 float64
		var pickTie uint64
		for i := 0; i < n; i++ {
			if chosen[i] {
				continue
			}
			d2 := minD2[i]
			tie := mix64(uint64(s.seed) ^ uint64(i)*0x9e3779b97f4a7c15)
			if pick < 0 || d2 > pickD2 || (d2 == pickD2 && tie < pickTie) {
				pick, pickD2, pickTie = i, d2, tie
			}
		}
		if pick < 0 {
			break
		}
		chosen[pick] = true
		sel = append(sel, pick)
		updateMinD2(minD2, chosen, s.xs, s.xs[pick])
	}

	sortInts(sel)
	s.selBuf = sel
	return sel
}

// updateMinD2 folds a newly chosen row into the maximin distances.
//
//autolint:hotpath
func updateMinD2(minD2 []float64, chosen []bool, xs [][]float64, row []float64) {
	for i := range minD2 {
		if chosen[i] {
			continue
		}
		d2 := sqDist(xs[i], row)
		if d2 < minD2[i] {
			minD2[i] = d2
		}
	}
}

// mix64 is the SplitMix64 finalizer, the same mix the acquisition search
// uses to derive restart streams.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// sortInts is an insertion sort: selection sets are small (≤ budget) and
// nearly sorted, and this keeps the package free of sort-package closures
// on the hot maintenance path.
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

func intsEqual(a, b []int) bool {
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

// MinY is the incumbent over the FULL history, not just the inducing set:
// expected-improvement baselines must not drift when points are skipped.
func (s *SparseGP) MinY() float64 {
	if len(s.ys) == 0 {
		return s.inner.MinY()
	}
	best := s.ys[0]
	for _, y := range s.ys[1:] {
		if y < best {
			best = y
		}
	}
	return best
}

// Predict delegates to the inducing model.
func (s *SparseGP) Predict(x []float64) (mean, variance float64, err error) {
	return s.inner.Predict(x)
}

// PredictWS delegates to the inducing model with a caller workspace.
func (s *SparseGP) PredictWS(ws *Workspace, x []float64) (mean, variance float64, err error) {
	return s.inner.PredictWS(ws, x)
}

// PredictN delegates batch prediction to the inducing model.
func (s *SparseGP) PredictN(xs [][]float64, mean, variance []float64) error {
	return s.inner.PredictN(xs, mean, variance)
}

// LogMarginalLikelihood is the inducing model's likelihood (of the subset).
func (s *SparseGP) LogMarginalLikelihood() (float64, error) {
	return s.inner.LogMarginalLikelihood()
}

// Clone deep-copies the sparse model for constant-liar fantasies. History
// rows are shared read-only, matching the dense Clone's discipline.
func (s *SparseGP) Clone() *SparseGP {
	c := &SparseGP{
		inner:        s.inner.Clone(),
		budget:       s.budget,
		rebuildEvery: s.rebuildEvery,
		seed:         s.seed,
		sinceRebuild: s.sinceRebuild,
		stats:        s.stats,
	}
	c.xs = append([][]float64(nil), s.xs...)
	c.ys = append([]float64(nil), s.ys...)
	c.active = append([]int(nil), s.active...)
	return c
}
