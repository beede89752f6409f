// Package smac implements SMAC-style sequential model-based optimization
// (Hutter, Hoos, Leyton-Brown 2010): a random-forest surrogate whose
// across-tree spread provides the uncertainty estimate, combined with
// expected improvement and a candidate pool mixing random samples with
// neighbourhoods of the incumbent. The tree surrogate handles categorical
// and conditional parameters natively, which is why SMAC is the tutorial's
// recommended model for discrete/hybrid spaces (slide 51).
package smac

import (
	"math"
	"math/rand"

	"autotune/internal/bo"
	"autotune/internal/forest"
	"autotune/internal/optimizer"
	"autotune/internal/space"
)

// Options configures SMAC.
type Options struct {
	// Acq is the acquisition function (default EI).
	Acq bo.Acquisition
	// Trees is the forest size (default 30).
	Trees int
	// InitSamples is the random warm-up count (default 5).
	InitSamples int
	// Candidates is the random candidate pool size (default 512).
	Candidates int
	// LocalCandidates is the number of incumbent-neighbourhood candidates
	// added to the pool (default 64).
	LocalCandidates int
	// MinVariance floors the forest's uncertainty so EI never collapses
	// to pure exploitation (default 1e-8).
	MinVariance float64
	// RandomInterleave is the probability that a suggestion is a pure
	// random sample instead of the acquisition maximizer (default 0.3).
	// Interleaving counters the forest's tendency to report near-zero
	// uncertainty in unexplored regions (trees extrapolate flat), which
	// would otherwise make EI purely exploitative — the original SMAC
	// alternates model-based and random configurations for the same
	// reason.
	RandomInterleave float64
	// DeepHistory is the history size past which refits amortize: below
	// it every dirty Suggest refits (the original behavior); past it the
	// forest refits only once per max(8, n/16) new observations, serving
	// the slightly stale model in between. Per-suggest maintenance then
	// stays O(trees · log n) instead of O(trees · n log n). Default 512.
	DeepHistory int
}

func (o Options) withDefaults() Options {
	if o.Acq == nil {
		o.Acq = bo.NewEI()
	}
	if o.Trees <= 0 {
		o.Trees = 30
	}
	if o.InitSamples <= 0 {
		o.InitSamples = 5
	}
	if o.Candidates <= 0 {
		o.Candidates = 512
	}
	if o.LocalCandidates <= 0 {
		o.LocalCandidates = 64
	}
	if o.MinVariance <= 0 {
		o.MinVariance = 1e-8
	}
	if o.RandomInterleave == 0 {
		o.RandomInterleave = 0.3
	}
	if o.RandomInterleave < 0 {
		o.RandomInterleave = 0
	}
	if o.DeepHistory <= 0 {
		o.DeepHistory = 512
	}
	return o
}

// SMAC is the random-forest-based optimizer. It implements
// optimizer.Optimizer and optimizer.BatchSuggester.
type SMAC struct {
	space *space.Space
	rng   *rand.Rand
	opts  Options

	// hist is every observation in arrival order, each Config kept as
	// Observe was handed it; incumbent is the first observation, then each
	// strictly lower one.
	hist      []optimizer.Observation
	incumbent optimizer.Observation

	model  *forest.Forest
	dirty  bool
	fitted int // history size the forest currently reflects
	refits int
	// encBuf is the reused encoding buffer for candidate scoring; the
	// forest reads it during Predict and retains nothing.
	encBuf []float64
}

// Stats reports surrogate maintenance counters: how many forest rebuilds
// have run and how much history the current forest reflects (past
// DeepHistory, Fitted lags N by up to the refit cadence).
type Stats struct {
	Refits int
	Fitted int
}

// Stats returns the current maintenance counters.
func (s *SMAC) Stats() Stats { return Stats{Refits: s.refits, Fitted: s.fitted} }

// New returns a SMAC optimizer with default options.
func New(s *space.Space, rng *rand.Rand) *SMAC {
	return NewWith(s, rng, Options{})
}

// NewWith returns a SMAC optimizer with explicit options.
func NewWith(s *space.Space, rng *rand.Rand, opts Options) *SMAC {
	return &SMAC{space: s, rng: rng, opts: opts.withDefaults()}
}

// Name implements optimizer.Optimizer.
func (s *SMAC) Name() string { return "smac" }

// Observe implements optimizer.Optimizer.
func (s *SMAC) Observe(cfg space.Config, value float64) error {
	obs := optimizer.Observation{Config: cfg, Value: value}
	if len(s.hist) == 0 || value < s.incumbent.Value {
		s.incumbent = obs
	}
	s.hist = append(s.hist, obs)
	s.dirty = true
	return nil
}

func (s *SMAC) refit() error {
	hist := s.hist
	xs := make([][]float64, len(hist))
	ys := make([]float64, len(hist))
	for i, obs := range hist {
		xs[i] = s.space.Encode(obs.Config)
		ys[i] = obs.Value
	}
	ys = clampInvalid(ys)
	m, err := forest.Fit(xs, ys, forest.Options{Trees: s.opts.Trees}, s.rng)
	if err != nil {
		return err
	}
	s.model = m
	s.dirty = false
	s.fitted = len(hist)
	s.refits++
	return nil
}

// ensureModel refits if the model is missing or stale beyond the cadence.
// Below DeepHistory every dirty call refits (the exact original behavior);
// past it refits amortize to once per max(8, n/16) observations, and the
// stale-but-recent forest serves suggestions in between.
func (s *SMAC) ensureModel() error {
	if s.model == nil {
		return s.refit()
	}
	if !s.dirty {
		return nil
	}
	n := len(s.hist)
	if n <= s.opts.DeepHistory {
		return s.refit()
	}
	every := n / 16
	if every < 8 {
		every = 8
	}
	if n-s.fitted >= every {
		return s.refit()
	}
	return nil
}

// Suggest implements optimizer.Optimizer.
func (s *SMAC) Suggest() (space.Config, error) {
	n := len(s.hist)
	if n == 0 {
		return s.space.Default(), nil
	}
	if n < s.opts.InitSamples {
		return s.space.Sample(s.rng), nil
	}
	if s.rng.Float64() < s.opts.RandomInterleave {
		return s.space.Sample(s.rng), nil
	}
	if err := s.ensureModel(); err != nil {
		return s.space.Sample(s.rng), nil
	}
	return s.pick(), nil
}

// predictCfg scores cfg through the reused encoding buffer, avoiding one
// vector allocation per candidate.
func (s *SMAC) predictCfg(cfg space.Config) (mean, variance float64) {
	if cap(s.encBuf) < s.space.Dim() {
		s.encBuf = make([]float64, s.space.Dim())
	}
	s.encBuf = s.encBuf[:s.space.Dim()]
	s.space.EncodeInto(cfg, s.encBuf)
	return s.model.Predict(s.encBuf)
}

// pick maximizes the acquisition over random + incumbent-local candidates.
func (s *SMAC) pick() space.Config {
	incumbent, best := s.incumbent.Config, s.incumbent.Value
	seen := make(map[string]bool, len(s.hist))
	for _, obs := range s.hist {
		seen[obs.Config.Key()] = true
	}
	var top space.Config
	topScore := math.Inf(-1)
	var topAny space.Config
	topAnyScore := math.Inf(-1)
	consider := func(cfg space.Config) {
		mu, v := s.predictCfg(cfg)
		if v < s.opts.MinVariance {
			v = s.opts.MinVariance
		}
		sc := s.opts.Acq.Score(mu, math.Sqrt(v), best)
		if sc > topAnyScore {
			topAny, topAnyScore = cfg, sc
		}
		if sc > topScore && !seen[cfg.Key()] {
			top, topScore = cfg, sc
		}
	}
	for i := 0; i < s.opts.Candidates; i++ {
		consider(s.space.Sample(s.rng))
	}
	if incumbent != nil {
		for i := 0; i < s.opts.LocalCandidates; i++ {
			consider(s.space.Neighbor(incumbent, 0.05, s.rng))
		}
	}
	if top == nil {
		top = topAny
	}
	if top == nil {
		top = s.space.Sample(s.rng)
	}
	return top
}

// SuggestN implements optimizer.BatchSuggester: it picks the top-n distinct
// candidates by acquisition score in one scoring pass.
func (s *SMAC) SuggestN(n int) ([]space.Config, error) {
	if n <= 1 || len(s.hist) < s.opts.InitSamples {
		out := make([]space.Config, 0, n)
		for i := 0; i < n; i++ {
			cfg, err := s.Suggest()
			if err != nil {
				return nil, err
			}
			out = append(out, cfg)
		}
		return out, nil
	}
	if err := s.ensureModel(); err != nil {
		return s.space.SampleN(s.rng, n), nil
	}
	best := s.incumbent.Value
	type scored struct {
		cfg   space.Config
		score float64
	}
	cands := make([]scored, 0, s.opts.Candidates)
	for i := 0; i < s.opts.Candidates; i++ {
		cfg := s.space.Sample(s.rng)
		mu, v := s.predictCfg(cfg)
		if v < s.opts.MinVariance {
			v = s.opts.MinVariance
		}
		cands = append(cands, scored{cfg, s.opts.Acq.Score(mu, math.Sqrt(v), best)})
	}
	out := make([]space.Config, 0, n)
	used := map[string]bool{}
	for len(out) < n {
		bi, bs := -1, math.Inf(-1)
		for i, c := range cands {
			if used[c.cfg.Key()] {
				continue
			}
			if c.score > bs {
				bi, bs = i, c.score
			}
		}
		if bi < 0 {
			out = append(out, s.space.Sample(s.rng))
			continue
		}
		used[cands[bi].cfg.Key()] = true
		out = append(out, cands[bi].cfg)
	}
	return out, nil
}

// Importance returns per-parameter permutation importances from the current
// forest, aligned with the space's parameter order. It refits if needed and
// returns nil when no model can be built.
func (s *SMAC) Importance() []float64 {
	if s.dirty || s.model == nil {
		if err := s.refit(); err != nil {
			return nil
		}
	}
	xs := make([][]float64, len(s.hist))
	ys := make([]float64, len(s.hist))
	for i, obs := range s.hist {
		xs[i] = s.space.Encode(obs.Config)
		ys[i] = obs.Value
	}
	ys = clampInvalid(ys)
	return s.model.PermutationImportance(xs, ys, s.rng)
}

// clampInvalid mirrors bo.clampInvalid for crash values; duplicated locally
// to keep the packages decoupled beyond the Acquisition interface.
func clampInvalid(ys []float64) []float64 {
	worst, best := math.Inf(-1), math.Inf(1)
	for _, y := range ys {
		if !math.IsInf(y, 0) && !math.IsNaN(y) {
			if y > worst {
				worst = y
			}
			if y < best {
				best = y
			}
		}
	}
	if math.IsInf(worst, -1) {
		out := make([]float64, len(ys))
		for i := range out {
			out[i] = 1
		}
		return out
	}
	spread := worst - best
	if spread <= 0 {
		spread = math.Abs(worst)
		if spread == 0 {
			spread = 1
		}
	}
	penalty := worst + 2*spread
	out := make([]float64, len(ys))
	for i, y := range ys {
		if math.IsInf(y, 0) || math.IsNaN(y) {
			out[i] = penalty
		} else {
			out[i] = y
		}
	}
	return out
}
