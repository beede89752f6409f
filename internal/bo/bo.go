package bo

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"autotune/internal/gp"
	"autotune/internal/numopt"
	"autotune/internal/optimizer"
	"autotune/internal/space"
)

// Options configures a BO optimizer. The zero value is usable: NewWith
// fills defaults.
type Options struct {
	// Acq is the acquisition function (default EI).
	Acq Acquisition
	// Kernel is the surrogate kernel template (default 1.0 * Matérn 5/2
	// with lengthscale 0.2, a solid default on unit-cube encodings).
	Kernel gp.Kernel
	// Noise is the initial observation-noise variance in normalized
	// target units (default 1e-6; raised automatically by hyperparameter
	// fitting when the data is noisy).
	Noise float64
	// InitSamples is the number of warm-up suggestions before the model
	// kicks in: the space default first, then stratified random samples
	// that cycle every categorical level (default max(5, L+1) where L is
	// the largest categorical level count, so every level is observed at
	// least once before the surrogate takes over).
	InitSamples int
	// Candidates is the random candidate pool size for acquisition
	// maximization (default 512).
	Candidates int
	// RefineIters enables Nelder-Mead local refinement of the best
	// candidate for this many iterations (default 40; 0 disables).
	RefineIters int
	// FitHyperEvery re-optimizes kernel hyperparameters every k
	// observations (default 10; 0 disables).
	FitHyperEvery int
	// OneHot selects one-hot encoding for categoricals (default true,
	// which distance-based kernels prefer; false uses scaled indices).
	OneHot bool
	// LogY fits the surrogate on log-transformed objective values, the
	// standard warping for heavy-tailed positive objectives like latency
	// (a single terrible configuration would otherwise dominate target
	// normalization and blind the model near the optimum). Requires all
	// observations to be positive; non-positive values fall back to a
	// shifted log.
	LogY bool
	// AcqRestarts is the number of independent restarts the multi-start
	// acquisition search runs (default 8). Candidates are split evenly
	// across restarts, each drawing from its own RNG derived from (search
	// seed, restart index).
	AcqRestarts int
	// AcqWorkers bounds the goroutines scoring restarts concurrently
	// (default min(GOMAXPROCS, AcqRestarts)). Every value produces
	// bitwise-identical suggestions: restart RNGs are index-derived and
	// results are reduced in index order.
	AcqWorkers int
	// GPWorkers bounds the goroutines the surrogate uses for gram
	// construction and batched prediction (default GOMAXPROCS). Every
	// value produces bitwise-identical models: rows are partitioned by
	// index and every matrix element has exactly one writer.
	GPWorkers int
	// Surrogate selects the surrogate tier policy (surrogate.go). The
	// default SurrogateAuto switches dense → sparse → forest as history
	// grows past DenseMax and SparseMax; the other values pin one tier.
	Surrogate SurrogatePolicy
	// DenseMax is the largest history the auto policy serves with the
	// exact incremental GP (default 512). Above it, per-observation
	// maintenance would cost O(n²) and keep growing.
	DenseMax int
	// SparseMax is the largest history the auto policy serves with the
	// subset-of-data sparse GP before switching to the random forest
	// (default 4096).
	SparseMax int
	// SparseBudget is the sparse tier's inducing-set size (default 256):
	// observe cost is O(budget²) regardless of history depth.
	SparseBudget int
	// TrustRegions is the number of local models the SurrogateLocal tier
	// maintains (default 4).
	TrustRegions int
	// LocalCap caps the observations each local model conditions on
	// (default 256), keeping every local fit O(cap²).
	LocalCap int
}

func (o Options) withDefaults() Options {
	if o.Acq == nil {
		o.Acq = NewEI()
	}
	if o.Kernel == nil {
		o.Kernel = gp.Scale(1, gp.NewMatern(2.5, 0.2))
	}
	if o.Noise <= 0 {
		o.Noise = 1e-6
	}
	if o.InitSamples <= 0 {
		o.InitSamples = 5
	}
	if o.Candidates <= 0 {
		o.Candidates = 512
	}
	if o.RefineIters < 0 {
		o.RefineIters = 0
	}
	if o.FitHyperEvery < 0 {
		o.FitHyperEvery = 0
	}
	if o.AcqRestarts <= 0 {
		o.AcqRestarts = 8
	}
	if o.AcqWorkers <= 0 {
		o.AcqWorkers = runtime.GOMAXPROCS(0)
		if o.AcqWorkers > o.AcqRestarts {
			o.AcqWorkers = o.AcqRestarts
		}
	}
	if o.DenseMax <= 0 {
		o.DenseMax = 512
	}
	if o.SparseMax <= 0 {
		o.SparseMax = 4096
	}
	if o.SparseMax < o.DenseMax {
		o.SparseMax = o.DenseMax
	}
	if o.SparseBudget <= 0 {
		o.SparseBudget = 256
	}
	if o.TrustRegions <= 0 {
		o.TrustRegions = 4
	}
	if o.LocalCap <= 0 {
		o.LocalCap = 256
	}
	return o
}

// SurrogateStats counts how the surrogate has been maintained, for tests
// and diagnostics.
type SurrogateStats struct {
	// IncrementalUpdates is the number of observations absorbed via O(n²)
	// rank-1 Cholesky row updates.
	IncrementalUpdates int
	// FullRefits is the number of from-scratch surrogate rebuilds,
	// including hyperparameter refits (and, under the forest and local
	// tiers, forest fits and region-model rebuilds).
	FullRefits int
	// HyperRefits is the subset of full refits that also re-optimized
	// kernel hyperparameters.
	HyperRefits int
	// HyperEvals is the number of log-marginal-likelihood evaluations (one
	// O(n³) factorization each) those hyperparameter refits spent.
	HyperEvals int
	// Tier is the currently active surrogate tier ("dense", "sparse",
	// "local", or "forest"); empty before the first model build.
	Tier string
	// TierSwitches counts automatic tier changes; Switches records each
	// one with the history size at which it fired. Both are pure
	// functions of (history length, Options) — identical across runs,
	// worker counts, and resume.
	TierSwitches int
	Switches     []TierSwitch
	// Sparse mirrors the sparse tier's absorb/skip/rebuild counters while
	// that tier is active.
	Sparse gp.SparseStats
	// ForestRefits counts forest rebuilds under the forest tier.
	ForestRefits int
	// LocalRestarts counts trust-region restarts under the local tier.
	LocalRestarts int
}

// BO is a sequential model-based optimizer with a GP surrogate. It
// implements optimizer.Optimizer and optimizer.BatchSuggester.
type BO struct {
	space *space.Space
	rng   *rand.Rand
	opts  Options

	// model is the active global surrogate: *gp.GP (dense tier),
	// *gp.SparseGP (sparse), or *forestSur (forest). Under the local tier
	// it is nil and local holds the trust regions instead.
	model      surModel
	local      *localModels
	tier       SurrogatePolicy // resolved tier; SurrogateAuto until first build
	surSeed    int64           // lazily drawn seed for sparse/forest/local tiers
	surSeeded  bool
	modelDirty bool
	lastHyper  int
	logShift   float64 // shift used by the LogY warp in the current fit

	// hist is every observation in arrival order; each Config is the one
	// Observe was handed, kept without a copy.
	hist []optimizer.Observation

	// absorbed is how many history observations the surrogate currently
	// reflects; haveInvalid whether any of them were non-finite before
	// clamping (which pins the clamp penalty to global history stats and
	// forces full refits).
	absorbed    int
	haveInvalid bool
	stats       SurrogateStats

	// encHist[i] is history entry i encoded once (see encoded) and never
	// rewritten: refits, pending absorption and the dedup set read the same
	// rows, so the GP's pointer-identity prefix checks hit.
	encHist [][]float64

	// Flat-buffer acquisition search state (acqfast.go). sampler draws
	// candidates straight into reused scalar/encoding vectors; seenEnc
	// dedups on encoded keys and is maintained incrementally over the
	// first seenN history entries; acqWS holds one workspace per search
	// worker and fastRes one outcome slot per restart.
	sampler *space.EncodedSampler
	seenEnc map[string]bool
	seenN   int
	encBuf  []float64
	keyBuf  []byte
	acqWS   []*acqWorkspace
	fastRes []fastOutcome
}

// Stats returns counters describing how the surrogate has been maintained
// (incremental updates, full refits, tier switches) since construction.
func (b *BO) Stats() SurrogateStats {
	st := b.stats
	if b.tier != SurrogateAuto {
		st.Tier = b.tier.String()
	}
	if sp, ok := b.model.(*gp.SparseGP); ok {
		st.Sparse = sp.Stats()
	}
	if b.local != nil {
		st.LocalRestarts = b.local.Restarts()
	}
	st.Switches = append([]TierSwitch(nil), b.stats.Switches...)
	return st
}

// SetGPWorkers overrides Options.GPWorkers after construction, propagating
// to an existing surrogate. Every value produces bitwise-identical models,
// so it is safe to change at any point in a run.
func (b *BO) SetGPWorkers(n int) {
	b.opts.GPWorkers = n
	if gm, ok := b.model.(gpModel); ok {
		gm.SetWorkers(n)
	}
}

// SetSurrogate overrides Options.Surrogate after construction but before
// the first model build, for callers (like the CLI) that construct
// optimizers through a generic factory.
func (b *BO) SetSurrogate(p SurrogatePolicy) { b.opts.Surrogate = p }

// SetDenseMax overrides the auto policy's dense→sparse switch threshold;
// values <= 0 are ignored.
func (b *BO) SetDenseMax(n int) {
	if n > 0 {
		b.opts.DenseMax = n
		if b.opts.SparseMax < n {
			b.opts.SparseMax = n
		}
	}
}

// New returns a BO optimizer with default options.
func New(s *space.Space, rng *rand.Rand) *BO {
	return NewWith(s, rng, Options{OneHot: true, RefineIters: 40, FitHyperEvery: 10})
}

// NewWith returns a BO optimizer with explicit options.
func NewWith(s *space.Space, rng *rand.Rand, opts Options) *BO {
	explicitInit := opts.InitSamples > 0
	opts = opts.withDefaults()
	if !explicitInit {
		maxLevels := 0
		for _, p := range s.Params() {
			if l := p.Levels(); l > maxLevels {
				maxLevels = l
			}
		}
		if maxLevels+1 > opts.InitSamples {
			opts.InitSamples = maxLevels + 1
		}
	}
	// The surrogate seed is drawn eagerly so every tier consumes the same
	// rng prefix: a pinned sparse run and a pinned dense run then share
	// their entire draw sequence, which is what makes "sparse == dense
	// below the inducing budget" hold for whole suggestion streams, not
	// just individual model predictions.
	return &BO{space: s, rng: rng, opts: opts, surSeed: rng.Int63(), surSeeded: true}
}

// Name implements optimizer.Optimizer.
func (b *BO) Name() string { return "bo-" + b.opts.Acq.Name() }

// Space returns the optimizer's configuration space.
func (b *BO) Space() *space.Space { return b.space }

func (b *BO) encode(cfg space.Config) []float64 {
	if b.opts.OneHot {
		return b.space.EncodeOneHot(cfg)
	}
	return b.space.Encode(cfg)
}

// encoded returns the encoded row of every history entry, encoding only
// those observed since the last call.
func (b *BO) encoded() [][]float64 {
	for _, obs := range b.hist[len(b.encHist):] {
		b.encHist = append(b.encHist, b.encode(obs.Config))
	}
	return b.encHist
}

// Observe implements optimizer.Optimizer and marks the surrogate stale.
func (b *BO) Observe(cfg space.Config, value float64) error {
	b.hist = append(b.hist, optimizer.Observation{Config: cfg, Value: value})
	b.modelDirty = true
	return nil
}

// History returns every observation in arrival order. The slice is live;
// callers must not modify it.
func (b *BO) History() []optimizer.Observation { return b.hist }

// refit rebuilds the active tier's surrogate from history; under the GP
// tiers, hyperparameters are refitted every FitHyperEvery observations.
func (b *BO) refit() error {
	hist := b.hist
	xs := b.encoded()
	ys := make([]float64, len(hist))
	haveInvalid := false
	for i, obs := range hist {
		ys[i] = obs.Value
		if math.IsInf(obs.Value, 0) || math.IsNaN(obs.Value) {
			haveInvalid = true
		}
	}
	ys = clampInvalid(ys)
	if b.opts.LogY {
		ys, b.logShift = logWarp(ys)
	}
	switch b.tier {
	case SurrogateLocal:
		if b.local == nil {
			b.local = newLocalModels(b)
		}
		b.model = nil
		if err := b.local.rebuild(b, hist, xs, ys); err != nil {
			return fmt.Errorf("bo: local rebuild: %w", err)
		}
	case SurrogateForest:
		f, ok := b.model.(*forestSur)
		if !ok {
			f = newForestSur(0, b.surrogateSeed(), &b.stats.ForestRefits)
			b.model = f
		}
		if err := f.Fit(xs, ys); err != nil {
			return err
		}
	default: // dense and sparse share the exact-GP maintenance path
		gm := b.gpModelForTier()
		every := b.opts.FitHyperEvery
		if every > 0 && len(hist)-b.lastHyper >= every {
			b.lastHyper = len(hist)
			b.stats.HyperRefits++
			before := gm.HyperEvals()
			err := gm.FitHyper(xs, ys, 2, b.rng)
			b.stats.HyperEvals += gm.HyperEvals() - before
			if err != nil {
				return fmt.Errorf("bo: hyper fit: %w", err)
			}
		} else if err := gm.Fit(xs, ys); err != nil {
			return fmt.Errorf("bo: fit: %w", err)
		}
	}
	b.stats.FullRefits++
	b.absorbed = len(hist)
	b.haveInvalid = haveInvalid
	b.modelDirty = false
	return nil
}

// gpModelForTier returns the current GP-backed surrogate, constructing
// (or replacing, after a tier switch) it as needed. The dense tier keeps
// the exact incremental GP; the sparse tier wraps the same GP behind a
// deterministic inducing-point subset.
func (b *BO) gpModelForTier() gpModel {
	if b.tier == SurrogateSparse {
		if sp, ok := b.model.(*gp.SparseGP); ok {
			return sp
		}
		sp := gp.NewSparse(b.opts.Kernel.Clone(), b.opts.Noise, b.opts.SparseBudget, b.surrogateSeed())
		sp.SetWorkers(b.opts.GPWorkers)
		b.model = sp
		return sp
	}
	if g, ok := b.model.(*gp.GP); ok {
		return g
	}
	g := gp.New(b.opts.Kernel.Clone(), b.opts.Noise)
	g.SetWorkers(b.opts.GPWorkers)
	b.model = g
	return g
}

// ensureModel brings the surrogate up to date with history: first the
// tier decision (a pure function of history size), then incremental
// absorption wherever it is exactly equivalent to refitting — otherwise
// (tier switch, hyperparameter refit due, non-finite values in play, or a
// LogY shift change) a rebuild from scratch.
func (b *BO) ensureModel() error {
	n := len(b.hist)
	tier := b.resolveTier(n)
	if tier != b.tier {
		if b.tier != SurrogateAuto { // initial placement is not a switch
			b.stats.TierSwitches++
			b.stats.Switches = append(b.stats.Switches, TierSwitch{
				N: n, From: b.tier.String(), To: tier.String(),
			})
		}
		b.tier = tier
		return b.refit()
	}
	if b.model == nil && b.local == nil {
		return b.refit()
	}
	if !b.modelDirty {
		return nil
	}
	hist := b.hist
	if b.haveInvalid || b.absorbed > len(hist) {
		return b.refit()
	}
	if b.tier != SurrogateForest {
		if every := b.opts.FitHyperEvery; every > 0 && len(hist)-b.lastHyper >= every {
			return b.refit()
		}
	}
	pending := hist[b.absorbed:]
	for _, obs := range pending {
		if math.IsInf(obs.Value, 0) || math.IsNaN(obs.Value) {
			// clampInvalid's penalty is derived from the whole history;
			// only a full refit applies it consistently.
			return b.refit()
		}
		if b.opts.LogY && obs.Value-1e-12 < -b.logShift {
			// The warp shift would grow, rewriting every past target.
			return b.refit()
		}
	}
	if b.tier == SurrogateLocal {
		b.local.sync(b, hist)
		b.absorbed = len(hist)
		b.modelDirty = false
		return nil
	}
	enc := b.encoded()[b.absorbed:]
	for i, obs := range pending {
		if err := b.model.Observe(enc[i], b.modelUnitY(obs.Value)); err != nil {
			return fmt.Errorf("bo: incremental observe: %w", err)
		}
		b.absorbed++
		if b.tier != SurrogateForest {
			b.stats.IncrementalUpdates++
		}
	}
	b.modelDirty = false
	return nil
}

// Suggest implements optimizer.Optimizer: warm-up samples first, then
// acquisition maximization over the surrogate.
func (b *BO) Suggest() (space.Config, error) {
	n := len(b.hist)
	if n == 0 {
		return b.space.Default(), nil
	}
	if n < b.opts.InitSamples {
		return b.stratifiedSample(n - 1), nil
	}
	if err := b.ensureModel(); err != nil {
		// Surrogate failure must not stall tuning: fall back to random.
		return b.space.Sample(b.rng), nil
	}
	if b.tier == SurrogateLocal {
		cfgs, err := b.local.suggestN(b, 1)
		if err != nil || len(cfgs) == 0 {
			return b.space.Sample(b.rng), nil
		}
		return cfgs[0], nil
	}
	cfg, err := b.maximizeAcq(b.model)
	if err != nil {
		return b.space.Sample(b.rng), nil
	}
	return cfg, nil
}

// stratifiedSample draws a random configuration whose categorical and
// boolean parameters are pinned to level (i mod L), guaranteeing every
// level appears during warm-up — a GP one-hot encoding gets no gradient
// toward levels it has never seen.
func (b *BO) stratifiedSample(i int) space.Config {
	cfg := b.space.Sample(b.rng)
	for _, p := range b.space.Params() {
		switch p.Kind {
		case space.KindCategorical:
			cfg[p.Name] = p.Values[i%len(p.Values)]
		case space.KindBool:
			cfg[p.Name] = i%2 == 1
		}
	}
	return b.space.Clip(cfg)
}

// refine runs Nelder-Mead on the unit-cube encoding around cfg, maximizing
// the acquisition; categorical assignments ride along via Decode snapping.
func (b *BO) refine(model surModel, cfg space.Config, best float64) space.Config {
	x0 := b.space.Encode(cfg)
	obj := func(x []float64) float64 {
		c := b.space.Decode(x)
		mu, v, err := model.Predict(b.encode(c))
		if err != nil {
			return math.Inf(1)
		}
		return -b.opts.Acq.Score(mu, math.Sqrt(v), best)
	}
	x, _ := numopt.NelderMead(obj, x0, numopt.Options{MaxIter: b.opts.RefineIters, Scale: 0.05})
	return b.space.Decode(x)
}

// SuggestN implements optimizer.BatchSuggester via the constant-liar
// heuristic: the fitted surrogate is cloned once, and after each pick the
// clone absorbs the pick at the incumbent value with an O(n²) rank-1
// update — no per-pick O(n³) refit — pushing later picks away.
func (b *BO) SuggestN(n int) ([]space.Config, error) {
	if n <= 1 || len(b.hist) < b.opts.InitSamples {
		out := make([]space.Config, 0, n)
		for i := 0; i < n; i++ {
			cfg, err := b.Suggest()
			if err != nil {
				return nil, err
			}
			out = append(out, cfg)
		}
		return out, nil
	}
	if err := b.ensureModel(); err != nil {
		return b.space.SampleN(b.rng, n), nil
	}
	if b.tier == SurrogateLocal {
		cfgs, err := b.local.suggestN(b, n)
		if err != nil {
			return b.space.SampleN(b.rng, n), nil
		}
		return cfgs, nil
	}
	model := cloneSur(b.model)
	lie := model.MinY() // incumbent in model units (post clamp and warp)
	out := make([]space.Config, 0, n)
	for i := 0; i < n; i++ {
		cfg, err := b.maximizeAcq(model)
		if err != nil || cfg == nil {
			cfg = b.space.Sample(b.rng)
		}
		out = append(out, cfg)
		if i == n-1 {
			break // the last pick has no later picks to push away
		}
		if err := model.Observe(b.encode(cfg), lie); err != nil {
			// Fantasy absorption failed (degenerate clone); later picks
			// simply are not pushed away from this one.
			continue
		}
	}
	return out, nil
}

// logWarp returns log-transformed values and the shift applied to keep
// arguments positive (0 when all values already are).
func logWarp(ys []float64) ([]float64, float64) {
	shift := 0.0
	for _, y := range ys {
		if y-1e-12 < -shift {
			shift = -(y - 1e-12)
		}
	}
	out := make([]float64, len(ys))
	for i, y := range ys {
		out[i] = math.Log(y + shift + 1e-12)
	}
	return out, shift
}

// Predict exposes the surrogate's posterior at cfg: mean and standard
// deviation, in model units — log-warped when Options.LogY is set. Used by
// safe-exploration guardrails and diagnostics. Before the model exists it
// returns ok=false.
func (b *BO) Predict(cfg space.Config) (mean, std float64, ok bool) {
	if len(b.hist) == 0 {
		return 0, 0, false
	}
	if err := b.ensureModel(); err != nil {
		return 0, 0, false
	}
	var mu, v float64
	var err error
	if b.tier == SurrogateLocal {
		mu, v, err = b.local.predict(b, cfg)
	} else {
		mu, v, err = b.model.Predict(b.encode(cfg))
	}
	if err != nil {
		return 0, 0, false
	}
	return mu, math.Sqrt(v), true
}
