// Package cmaes implements the CMA-ES evolution strategy (Hansen 2023):
// rank-µ and rank-one covariance matrix adaptation with cumulative step-size
// adaptation (CSA). The search runs in the unit-cube encoding of the
// configuration space; suggestions are decoded back to typed configs.
//
// The optimizer fits the framework's sequential Suggest/Observe protocol by
// buffering one generation at a time: λ suggestions are drawn from the
// current search distribution, and once all λ observations have arrived the
// distribution parameters (mean, step size, covariance) are updated.
package cmaes

import (
	"math"
	"math/rand"

	"autotune/internal/linalg"
	"autotune/internal/space"
)

// Options configures CMA-ES.
type Options struct {
	// Lambda is the population size (default 4 + floor(3 ln d)).
	Lambda int
	// Sigma0 is the initial step size in unit-cube units (default 0.3).
	Sigma0 float64
}

// CMAES implements optimizer.Optimizer and optimizer.BatchSuggester.
type CMAES struct {
	space *space.Space
	rng   *rand.Rand

	dim    int
	lambda int
	mu     int
	wts    []float64
	muEff  float64

	// Strategy parameters.
	cSigma, dSigma float64
	cc, c1, cMu    float64
	chiN           float64

	// State.
	mean   []float64
	sigma  float64
	cov    *linalg.Matrix
	pSigma []float64
	pc     []float64
	gen    int

	// Eigen cache of cov: cov = B diag(d²) Bᵀ.
	eigB *linalg.Matrix
	eigD []float64

	// Current generation bookkeeping.
	pending   []genSample // suggested, awaiting observation
	nextIdx   int
	observed  []genSample
	genActive bool
}

type genSample struct {
	z   []float64 // standard normal draw
	y   []float64 // B D z (unscaled step)
	x   []float64 // mean + sigma*y, clipped
	key string
	val float64
}

// New returns a CMA-ES optimizer with default options.
func New(s *space.Space, rng *rand.Rand) *CMAES {
	return NewWith(s, rng, Options{})
}

// NewWith returns a CMA-ES optimizer with explicit options.
func NewWith(s *space.Space, rng *rand.Rand, opts Options) *CMAES {
	d := s.Dim()
	lambda := opts.Lambda
	if lambda <= 0 {
		lambda = 4 + int(math.Floor(3*math.Log(float64(d))))
	}
	if lambda < 4 {
		lambda = 4
	}
	mu := lambda / 2
	wts := make([]float64, mu)
	sum := 0.0
	for i := range wts {
		wts[i] = math.Log(float64(lambda)/2+0.5) - math.Log(float64(i+1))
		sum += wts[i]
	}
	muEff := 0.0
	for i := range wts {
		wts[i] /= sum
		muEff += wts[i] * wts[i]
	}
	muEff = 1 / muEff

	n := float64(d)
	c := &CMAES{
		space:  s,
		rng:    rng,
		dim:    d,
		lambda: lambda,
		mu:     mu,
		wts:    wts,
		muEff:  muEff,
		cSigma: (muEff + 2) / (n + muEff + 5),
		cc:     (4 + muEff/n) / (n + 4 + 2*muEff/n),
		chiN:   math.Sqrt(n) * (1 - 1/(4*n) + 1/(21*n*n)),
		sigma:  opts.Sigma0,
	}
	c.dSigma = 1 + 2*math.Max(0, math.Sqrt((muEff-1)/(n+1))-1) + c.cSigma
	c.c1 = 2 / ((n+1.3)*(n+1.3) + muEff)
	c.cMu = math.Min(1-c.c1, 2*(muEff-2+1/muEff)/((n+2)*(n+2)+muEff))
	if c.sigma <= 0 {
		c.sigma = 0.3
	}
	// Start at the encoded default configuration.
	c.mean = s.Encode(s.Default())
	c.cov = linalg.Identity(d)
	c.pSigma = make([]float64, d)
	c.pc = make([]float64, d)
	c.refreshEigen()
	return c
}

// Name implements optimizer.Optimizer.
func (c *CMAES) Name() string { return "cmaes" }

// Lambda returns the population size.
func (c *CMAES) Lambda() int { return c.lambda }

// Sigma returns the current global step size.
func (c *CMAES) Sigma() float64 { return c.sigma }

func (c *CMAES) refreshEigen() {
	vals, vecs, err := linalg.SymEigen(c.cov)
	if err != nil {
		c.cov = linalg.Identity(c.dim)
		vals = make([]float64, c.dim)
		for i := range vals {
			vals[i] = 1
		}
		vecs = linalg.Identity(c.dim)
	}
	d := make([]float64, len(vals))
	for i, v := range vals {
		if v < 1e-20 {
			v = 1e-20
		}
		d[i] = math.Sqrt(v)
	}
	c.eigB = vecs
	c.eigD = d
}

// drawGeneration samples λ candidates from N(mean, σ² C).
func (c *CMAES) drawGeneration() {
	c.pending = c.pending[:0]
	c.observed = c.observed[:0]
	c.nextIdx = 0
	c.genActive = true
	for i := 0; i < c.lambda; i++ {
		z := make([]float64, c.dim)
		for j := range z {
			z[j] = c.rng.NormFloat64()
		}
		// y = B * (D .* z)
		dz := make([]float64, c.dim)
		for j := range dz {
			dz[j] = c.eigD[j] * z[j]
		}
		y := c.eigB.MulVec(dz)
		x := make([]float64, c.dim)
		for j := range x {
			x[j] = c.mean[j] + c.sigma*y[j]
			if x[j] < 0 {
				x[j] = 0
			}
			if x[j] > 1 {
				x[j] = 1
			}
		}
		cfg := c.space.Decode(x)
		c.pending = append(c.pending, genSample{z: z, y: y, x: x, key: cfg.Key()})
	}
}

// Suggest implements optimizer.Optimizer.
func (c *CMAES) Suggest() (space.Config, error) {
	if !c.genActive {
		c.drawGeneration()
	}
	if c.nextIdx >= len(c.pending) {
		// The whole generation has been handed out but not fully observed:
		// re-suggest the first still-unobserved sample rather than stall.
		for i := range c.pending {
			if c.pending[i].key != "" {
				return c.space.Decode(c.pending[i].x), nil
			}
		}
		// Everything observed (shouldn't happen: update() would have run);
		// start a fresh generation defensively.
		c.drawGeneration()
	}
	s := c.pending[c.nextIdx]
	c.nextIdx++
	return c.space.Decode(s.x), nil
}

// SuggestN implements optimizer.BatchSuggester. CMA-ES is naturally
// parallel: a whole generation can be evaluated at once.
func (c *CMAES) SuggestN(n int) ([]space.Config, error) {
	out := make([]space.Config, 0, n)
	for i := 0; i < n; i++ {
		cfg, err := c.Suggest()
		if err != nil {
			return nil, err
		}
		out = append(out, cfg)
	}
	return out, nil
}

// Observe implements optimizer.Optimizer. Observations are matched to the
// pending generation by config identity; once λ arrive the distribution is
// updated. Foreign observations (warm-start data) change nothing.
func (c *CMAES) Observe(cfg space.Config, value float64) error {
	if !c.genActive {
		return nil
	}
	key := cfg.Key()
	for i := range c.pending {
		if c.pending[i].key == key {
			s := c.pending[i]
			s.val = value
			c.observed = append(c.observed, s)
			// Remove from pending by swapping with the last un-suggested slot
			// is unnecessary; mark matched by clearing the key.
			c.pending[i].key = ""
			break
		}
	}
	if len(c.observed) >= c.lambda {
		c.update()
		c.genActive = false
	}
	return nil
}

// update applies the CMA-ES parameter update from the observed generation.
func (c *CMAES) update() {
	gen := c.observed
	// Sort by fitness ascending (minimization); insertion sort, λ small.
	for i := 1; i < len(gen); i++ {
		for j := i; j > 0 && gen[j].val < gen[j-1].val; j-- {
			gen[j], gen[j-1] = gen[j-1], gen[j]
		}
	}
	n := float64(c.dim)
	// Weighted mean of top-µ steps.
	yw := make([]float64, c.dim)
	for i := 0; i < c.mu; i++ {
		linalg.AXPY(c.wts[i], gen[i].y, yw)
	}
	for j := range c.mean {
		c.mean[j] += c.sigma * yw[j]
		if c.mean[j] < 0 {
			c.mean[j] = 0
		}
		if c.mean[j] > 1 {
			c.mean[j] = 1
		}
	}

	// Step-size path: p_σ update uses C^(-1/2) y_w = B D^{-1} Bᵀ y_w.
	bty := c.eigB.T().MulVec(yw)
	for j := range bty {
		bty[j] /= c.eigD[j]
	}
	cInvSqrtYw := c.eigB.MulVec(bty)
	csFac := math.Sqrt(c.cSigma * (2 - c.cSigma) * c.muEff)
	for j := range c.pSigma {
		c.pSigma[j] = (1-c.cSigma)*c.pSigma[j] + csFac*cInvSqrtYw[j]
	}
	psNorm := linalg.Norm2(c.pSigma)
	c.sigma *= math.Exp((c.cSigma / c.dSigma) * (psNorm/c.chiN - 1))
	if c.sigma > 1 {
		c.sigma = 1 // unit cube: bigger steps are pointless
	}
	if c.sigma < 1e-8 {
		c.sigma = 1e-8
	}

	// Covariance path with stall (hsig) heuristic.
	hsig := 0.0
	denom := math.Sqrt(1 - math.Pow(1-c.cSigma, 2*float64(c.gen+1)))
	if psNorm/denom/c.chiN < 1.4+2/(n+1) {
		hsig = 1
	}
	ccFac := math.Sqrt(c.cc * (2 - c.cc) * c.muEff)
	for j := range c.pc {
		c.pc[j] = (1-c.cc)*c.pc[j] + hsig*ccFac*yw[j]
	}

	// Covariance update: rank-one + rank-µ.
	oneMinus := 1 - c.c1 - c.cMu
	for i := 0; i < c.dim; i++ {
		for j := 0; j < c.dim; j++ {
			v := oneMinus * c.cov.At(i, j)
			v += c.c1 * (c.pc[i]*c.pc[j] + (1-hsig)*c.cc*(2-c.cc)*c.cov.At(i, j))
			for k := 0; k < c.mu; k++ {
				v += c.cMu * c.wts[k] * gen[k].y[i] * gen[k].y[j]
			}
			c.cov.Set(i, j, v)
		}
	}
	c.gen++
	c.refreshEigen()
}

// Generation returns the number of completed generations.
func (c *CMAES) Generation() int { return c.gen }
