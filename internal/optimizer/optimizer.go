// Package optimizer defines the framework's optimizer contract — the
// suggest/observe loop from the tutorial's "optimizer as a black box" slide —
// and implements the classic search strategies: random search, grid search,
// simulated annealing, and greedy coordinate descent. Model-guided
// optimizers (Bayesian optimization, SMAC, CMA-ES, ...) live in sibling
// packages and satisfy the same interface.
package optimizer

import (
	"errors"
	"math"
	"math/rand"

	"autotune/internal/space"
)

// Optimizer is the sequential black-box optimization contract. All
// objectives are minimized; callers negate throughput-style metrics.
//
// The protocol is: Suggest a configuration, evaluate it externally, Observe
// the result, repeat. Implementations may tolerate out-of-order or missing
// observations unless documented otherwise. The history and the incumbent
// belong to the loop that drives the strategy (trial.Study); a strategy
// keeps only what it reads.
type Optimizer interface {
	// Suggest proposes the next configuration to evaluate.
	Suggest() (space.Config, error)
	// Observe reports the measured objective for a configuration. The
	// strategy may keep cfg without copying it, so the caller must not
	// modify it afterwards.
	Observe(cfg space.Config, value float64) error
	// Name identifies the algorithm for reports.
	Name() string
}

// BatchSuggester is implemented by optimizers that can propose several
// configurations at once for parallel evaluation.
type BatchSuggester interface {
	// SuggestN proposes up to n configurations (it may return fewer, e.g.
	// when a grid is nearly exhausted).
	SuggestN(n int) ([]space.Config, error)
}

// ErrExhausted is returned by Suggest when a finite strategy (e.g. grid
// search) has no configurations left.
var ErrExhausted = errors.New("optimizer: search exhausted")

// Observation is one evaluated configuration.
type Observation struct {
	Config space.Config
	Value  float64
}

// Random is uniform random search: each Suggest draws an independent sample
// from the space (log-uniform on log-scaled parameters).
type Random struct {
	space *space.Space
	rng   *rand.Rand
}

// NewRandom returns a random-search optimizer over s.
func NewRandom(s *space.Space, rng *rand.Rand) *Random {
	return &Random{space: s, rng: rng}
}

// Suggest implements Optimizer.
func (o *Random) Suggest() (space.Config, error) {
	return o.space.Sample(o.rng), nil
}

// SuggestN implements BatchSuggester.
func (o *Random) SuggestN(n int) ([]space.Config, error) {
	return o.space.SampleN(o.rng, n), nil
}

// Observe implements Optimizer; random search reads no history.
func (o *Random) Observe(space.Config, float64) error { return nil }

// Name implements Optimizer.
func (o *Random) Name() string { return "random" }

// Grid is deterministic grid search over a fixed budgeted grid; Suggest
// returns ErrExhausted once every point has been proposed.
type Grid struct {
	points []space.Config
	next   int
}

// NewGrid returns a grid-search optimizer whose grid holds at most roughly
// `budget` points (see space.GridBudget).
func NewGrid(s *space.Space, budget int) *Grid {
	return &Grid{points: s.GridBudget(budget)}
}

// NewGridLevels returns grid search with exactly `levels` points per
// numeric parameter.
func NewGridLevels(s *space.Space, levels int) *Grid {
	return &Grid{points: s.Grid(levels)}
}

// Suggest implements Optimizer.
func (o *Grid) Suggest() (space.Config, error) {
	if o.next >= len(o.points) {
		return nil, ErrExhausted
	}
	cfg := o.points[o.next]
	o.next++
	return cfg.Clone(), nil
}

// SuggestN implements BatchSuggester.
func (o *Grid) SuggestN(n int) ([]space.Config, error) {
	var out []space.Config
	for i := 0; i < n; i++ {
		cfg, err := o.Suggest()
		if errors.Is(err, ErrExhausted) {
			break
		}
		if err != nil {
			return nil, err
		}
		out = append(out, cfg)
	}
	if len(out) == 0 {
		return nil, ErrExhausted
	}
	return out, nil
}

// Observe implements Optimizer; the grid's order ignores results.
func (o *Grid) Observe(space.Config, float64) error { return nil }

// Size returns the total number of grid points.
func (o *Grid) Size() int { return len(o.points) }

// Name implements Optimizer.
func (o *Grid) Name() string { return "grid" }

// Anneal is simulated annealing: a random walk over space neighbourhoods
// that always accepts improvements and accepts regressions with probability
// exp(-Δ/T), with geometrically cooling temperature T.
type Anneal struct {
	space *space.Space
	rng   *rand.Rand

	// Temp0 is the initial temperature in objective units (default 1).
	Temp0 float64
	// Cooling is the per-step temperature multiplier (default 0.95).
	Cooling float64
	// StepScale is the neighbourhood size in unit-cube units (default 0.1).
	StepScale float64

	cur    space.Config
	curVal float64
	hasCur bool
	step   int
}

// NewAnneal returns a simulated-annealing optimizer over s with default
// schedule parameters.
func NewAnneal(s *space.Space, rng *rand.Rand) *Anneal {
	return &Anneal{space: s, rng: rng, Temp0: 1, Cooling: 0.95, StepScale: 0.1}
}

// Suggest implements Optimizer. The first suggestion is the space default;
// later ones perturb the current state.
func (o *Anneal) Suggest() (space.Config, error) {
	if !o.hasCur {
		return o.space.Default(), nil
	}
	return o.space.Neighbor(o.cur, o.StepScale, o.rng), nil
}

// Observe implements Optimizer with Metropolis acceptance.
func (o *Anneal) Observe(cfg space.Config, value float64) error {
	if !o.hasCur {
		o.cur, o.curVal, o.hasCur = cfg, value, true
		return nil
	}
	delta := value - o.curVal
	temp := o.Temp0 * math.Pow(o.Cooling, float64(o.step))
	o.step++
	if delta <= 0 || (temp > 0 && o.rng.Float64() < math.Exp(-delta/temp)) {
		o.cur, o.curVal = cfg, value
	}
	return nil
}

// Temperature returns the current annealing temperature.
func (o *Anneal) Temperature() float64 {
	return o.Temp0 * math.Pow(o.Cooling, float64(o.step))
}

// Name implements Optimizer.
func (o *Anneal) Name() string { return "anneal" }

// Coordinate is greedy coordinate descent (BestConfig-style divide and
// conquer): it sweeps parameters round-robin, trying `LevelsPerParam`
// values of the active parameter while holding the incumbent fixed, and
// keeps the best.
type Coordinate struct {
	space *space.Space
	rng   *rand.Rand

	// LevelsPerParam is how many candidate values to try per sweep of a
	// parameter (default 5).
	LevelsPerParam int

	cur      space.Config
	hasCur   bool
	best     space.Config // incumbent: the first observation, then each strictly lower one
	bestVal  float64
	paramIdx int
	levelIdx int
}

// NewCoordinate returns a coordinate-descent optimizer over s.
func NewCoordinate(s *space.Space, rng *rand.Rand) *Coordinate {
	return &Coordinate{space: s, rng: rng, LevelsPerParam: 5}
}

// Suggest implements Optimizer.
func (o *Coordinate) Suggest() (space.Config, error) {
	if !o.hasCur {
		return o.space.Default(), nil
	}
	params := o.space.Params()
	p := params[o.paramIdx%len(params)]
	cfg := o.cur.Clone()
	levels := o.LevelsPerParam
	if l := p.Levels(); l > 0 && l < levels {
		levels = l
	}
	u := 0.5
	if levels > 1 {
		u = float64(o.levelIdx%levels) / float64(levels-1)
	}
	// Decode just this parameter from the unit interval.
	x := o.space.Encode(cfg)
	x[o.paramIdx%len(params)] = u
	probe := o.space.Decode(x)
	cfg[p.Name] = probe[p.Name]

	o.levelIdx++
	if o.levelIdx >= levels {
		o.levelIdx = 0
		o.paramIdx++
	}
	return cfg, nil
}

// Observe implements Optimizer; the incumbent advances greedily.
func (o *Coordinate) Observe(cfg space.Config, value float64) error {
	if !o.hasCur || value < o.bestVal {
		o.best, o.bestVal = cfg, value
	}
	if !o.hasCur || o.bestVal >= value {
		o.cur, o.hasCur = o.best, true
	}
	return nil
}

// Name implements Optimizer.
func (o *Coordinate) Name() string { return "coordinate" }
