// Package pso implements global-best particle swarm optimization (Gad 2022)
// over the unit-cube encoding of a configuration space, with linearly
// decaying inertia and velocity clamping. Like CMA-ES it buffers one
// swarm iteration at a time to fit the sequential Suggest/Observe protocol.
package pso

import (
	"math"
	"math/rand"

	"autotune/internal/space"
)

// Options configures the swarm.
type Options struct {
	// Particles is the swarm size (default 20).
	Particles int
	// InertiaStart/InertiaEnd define the linear inertia decay schedule
	// (defaults 0.9 → 0.4 over DecayIters iterations).
	InertiaStart, InertiaEnd float64
	// DecayIters is the inertia decay horizon in iterations (default 50).
	DecayIters int
	// Cognitive and Social are the acceleration coefficients
	// (defaults 1.49 each, the standard constricted values).
	Cognitive, Social float64
	// VMax clamps per-dimension velocity in unit-cube units (default 0.25).
	VMax float64
}

func (o Options) withDefaults() Options {
	if o.Particles <= 0 {
		o.Particles = 20
	}
	if o.InertiaStart <= 0 {
		o.InertiaStart = 0.9
	}
	if o.InertiaEnd <= 0 {
		o.InertiaEnd = 0.4
	}
	if o.DecayIters <= 0 {
		o.DecayIters = 50
	}
	if o.Cognitive <= 0 {
		o.Cognitive = 1.49
	}
	if o.Social <= 0 {
		o.Social = 1.49
	}
	if o.VMax <= 0 {
		o.VMax = 0.25
	}
	return o
}

type particle struct {
	pos, vel []float64
	bestPos  []float64
	bestVal  float64
	key      string // key of the config awaiting observation; "" when idle
}

// PSO implements optimizer.Optimizer and optimizer.BatchSuggester.
type PSO struct {
	space *space.Space
	rng   *rand.Rand
	opts  Options

	particles []*particle
	gBestPos  []float64
	gBestVal  float64
	iter      int
	nextIdx   int
	observedN int
}

// New returns a PSO optimizer with default options.
func New(s *space.Space, rng *rand.Rand) *PSO { return NewWith(s, rng, Options{}) }

// NewWith returns a PSO optimizer with explicit options.
func NewWith(s *space.Space, rng *rand.Rand, opts Options) *PSO {
	opts = opts.withDefaults()
	p := &PSO{space: s, rng: rng, opts: opts, gBestVal: math.Inf(1)}
	d := s.Dim()
	for i := 0; i < opts.Particles; i++ {
		pos := make([]float64, d)
		vel := make([]float64, d)
		for j := range pos {
			pos[j] = rng.Float64()
			vel[j] = (rng.Float64()*2 - 1) * opts.VMax
		}
		if i == 0 {
			pos = s.Encode(s.Default()) // seed one particle at the default
		}
		p.particles = append(p.particles, &particle{
			pos: pos, vel: vel,
			bestPos: append([]float64(nil), pos...),
			bestVal: math.Inf(1),
		})
	}
	return p
}

// Name implements optimizer.Optimizer.
func (p *PSO) Name() string { return "pso" }

// Iteration returns the number of completed swarm iterations.
func (p *PSO) Iteration() int { return p.iter }

// Suggest implements optimizer.Optimizer: it hands out the current position
// of the next particle in the swarm.
func (p *PSO) Suggest() (space.Config, error) {
	pt := p.particles[p.nextIdx%len(p.particles)]
	p.nextIdx++
	cfg := p.space.Decode(pt.pos)
	pt.key = cfg.Key()
	return cfg, nil
}

// SuggestN implements optimizer.BatchSuggester.
func (p *PSO) SuggestN(n int) ([]space.Config, error) {
	out := make([]space.Config, 0, n)
	for i := 0; i < n; i++ {
		cfg, err := p.Suggest()
		if err != nil {
			return nil, err
		}
		out = append(out, cfg)
	}
	return out, nil
}

// Observe implements optimizer.Optimizer. When every particle in the swarm
// has been evaluated this iteration, velocities and positions advance.
func (p *PSO) Observe(cfg space.Config, value float64) error {
	key := cfg.Key()
	matched := false
	for _, pt := range p.particles {
		if pt.key == key {
			pt.key = ""
			matched = true
			if value < pt.bestVal {
				pt.bestVal = value
				copy(pt.bestPos, pt.pos)
			}
			if value < p.gBestVal {
				p.gBestVal = value
				p.gBestPos = append([]float64(nil), pt.pos...)
			}
			p.observedN++
			break
		}
	}
	if !matched {
		// Foreign observation (warm start): adopt as global best if better.
		x := p.space.Encode(cfg)
		if value < p.gBestVal {
			p.gBestVal = value
			p.gBestPos = append([]float64(nil), x...)
		}
		return nil
	}
	if p.observedN >= len(p.particles) {
		p.step()
		p.observedN = 0
		p.nextIdx = 0
	}
	return nil
}

// step advances every particle one velocity update.
func (p *PSO) step() {
	frac := float64(p.iter) / float64(p.opts.DecayIters)
	if frac > 1 {
		frac = 1
	}
	w := p.opts.InertiaStart + (p.opts.InertiaEnd-p.opts.InertiaStart)*frac
	for _, pt := range p.particles {
		for j := range pt.pos {
			r1, r2 := p.rng.Float64(), p.rng.Float64()
			social := 0.0
			if p.gBestPos != nil {
				social = p.opts.Social * r2 * (p.gBestPos[j] - pt.pos[j])
			}
			pt.vel[j] = w*pt.vel[j] +
				p.opts.Cognitive*r1*(pt.bestPos[j]-pt.pos[j]) +
				social
			if pt.vel[j] > p.opts.VMax {
				pt.vel[j] = p.opts.VMax
			}
			if pt.vel[j] < -p.opts.VMax {
				pt.vel[j] = -p.opts.VMax
			}
			pt.pos[j] += pt.vel[j]
			// Reflect at the walls to keep the swarm inside the cube.
			if pt.pos[j] < 0 {
				pt.pos[j] = -pt.pos[j]
				pt.vel[j] = -pt.vel[j]
			}
			if pt.pos[j] > 1 {
				pt.pos[j] = 2 - pt.pos[j]
				pt.vel[j] = -pt.vel[j]
			}
			if pt.pos[j] < 0 {
				pt.pos[j] = 0
			}
			if pt.pos[j] > 1 {
				pt.pos[j] = 1
			}
		}
	}
	p.iter++
}
