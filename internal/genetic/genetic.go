// Package genetic implements a generational genetic algorithm over typed
// configuration spaces (HUNTER/RFHOC-style online tuners use GAs): tournament
// selection, uniform crossover with blend crossover on numeric genes,
// per-kind mutation, and elitism. One generation is buffered at a time to
// fit the Suggest/Observe protocol.
package genetic

import (
	"math"
	"math/rand"

	"autotune/internal/space"
)

// Options configures the GA.
type Options struct {
	// Population size (default 24).
	Population int
	// Elite is how many best individuals survive unchanged (default 2).
	Elite int
	// TournamentK is the tournament size for parent selection (default 3).
	TournamentK int
	// CrossoverRate is the per-pair crossover probability (default 0.9).
	CrossoverRate float64
	// MutationRate is the per-gene mutation probability (default 0.15).
	MutationRate float64
	// MutationScale is the numeric mutation step in unit-cube units
	// (default 0.1).
	MutationScale float64
}

func (o Options) withDefaults() Options {
	if o.Population <= 0 {
		o.Population = 24
	}
	if o.Elite < 0 {
		o.Elite = 0
	} else if o.Elite == 0 {
		o.Elite = 2
	}
	if o.Elite >= o.Population {
		o.Elite = o.Population - 1
	}
	if o.TournamentK <= 0 {
		o.TournamentK = 3
	}
	if o.CrossoverRate <= 0 {
		o.CrossoverRate = 0.9
	}
	if o.MutationRate <= 0 {
		o.MutationRate = 0.15
	}
	if o.MutationScale <= 0 {
		o.MutationScale = 0.1
	}
	return o
}

type individual struct {
	cfg space.Config
	val float64
	key string // pending key; "" once observed
	got bool
}

// GA implements optimizer.Optimizer and optimizer.BatchSuggester.
type GA struct {
	space *space.Space
	rng   *rand.Rand
	opts  Options

	pop     []*individual
	nextIdx int
	gen     int
	// best is the incumbent: the first observation, then each strictly
	// lower one; nil before any.
	best    space.Config
	bestVal float64
}

// New returns a GA with default options.
func New(s *space.Space, rng *rand.Rand) *GA { return NewWith(s, rng, Options{}) }

// NewWith returns a GA with explicit options.
func NewWith(s *space.Space, rng *rand.Rand, opts Options) *GA {
	opts = opts.withDefaults()
	g := &GA{space: s, rng: rng, opts: opts}
	g.pop = make([]*individual, opts.Population)
	for i := range g.pop {
		var cfg space.Config
		if i == 0 {
			cfg = s.Default()
		} else {
			cfg = s.Sample(rng)
		}
		g.pop[i] = &individual{cfg: cfg, key: cfg.Key(), val: math.Inf(1)}
	}
	return g
}

// Name implements optimizer.Optimizer.
func (g *GA) Name() string { return "genetic" }

// Generation returns the number of completed generations.
func (g *GA) Generation() int { return g.gen }

// Suggest implements optimizer.Optimizer.
func (g *GA) Suggest() (space.Config, error) {
	// Hand out the next unevaluated individual; wrap if callers over-ask.
	for tries := 0; tries < len(g.pop); tries++ {
		ind := g.pop[g.nextIdx%len(g.pop)]
		g.nextIdx++
		if !ind.got {
			return ind.cfg.Clone(), nil
		}
	}
	// All evaluated (callers raced ahead): return a mutant of the best.
	if g.best == nil {
		return g.space.Sample(g.rng), nil
	}
	return g.space.Neighbor(g.best, g.opts.MutationScale, g.rng), nil
}

// SuggestN implements optimizer.BatchSuggester.
func (g *GA) SuggestN(n int) ([]space.Config, error) {
	out := make([]space.Config, 0, n)
	for i := 0; i < n; i++ {
		cfg, err := g.Suggest()
		if err != nil {
			return nil, err
		}
		out = append(out, cfg)
	}
	return out, nil
}

// Observe implements optimizer.Optimizer; a full generation triggers
// selection and breeding.
func (g *GA) Observe(cfg space.Config, value float64) error {
	if g.best == nil || value < g.bestVal {
		g.best, g.bestVal = cfg, value
	}
	key := cfg.Key()
	done := 0
	for _, ind := range g.pop {
		if !ind.got && ind.key == key {
			ind.val = value
			ind.got = true
		}
		if ind.got {
			done++
		}
	}
	if done >= len(g.pop) {
		g.breed()
	}
	return nil
}

// breed produces the next generation: elites survive; the rest come from
// tournament-selected parents via crossover and mutation.
func (g *GA) breed() {
	// Sort ascending by fitness (insertion; population small).
	pop := g.pop
	for i := 1; i < len(pop); i++ {
		for j := i; j > 0 && pop[j].val < pop[j-1].val; j-- {
			pop[j], pop[j-1] = pop[j-1], pop[j]
		}
	}
	next := make([]*individual, 0, len(pop))
	for i := 0; i < g.opts.Elite; i++ {
		cfg := pop[i].cfg.Clone()
		next = append(next, &individual{cfg: cfg, key: cfg.Key(), val: pop[i].val, got: true})
	}
	for len(next) < len(pop) {
		p1 := g.tournament()
		p2 := g.tournament()
		child := g.crossover(p1.cfg, p2.cfg)
		child = g.mutate(child)
		next = append(next, &individual{cfg: child, key: child.Key(), val: math.Inf(1)})
	}
	g.pop = next
	g.nextIdx = 0
	g.gen++
}

func (g *GA) tournament() *individual {
	best := g.pop[g.rng.Intn(len(g.pop))]
	for i := 1; i < g.opts.TournamentK; i++ {
		c := g.pop[g.rng.Intn(len(g.pop))]
		if c.val < best.val {
			best = c
		}
	}
	return best
}

// crossover mixes two parents: numeric genes blend (BLX-style convex
// combination), discrete genes pick a parent uniformly.
func (g *GA) crossover(a, b space.Config) space.Config {
	if g.rng.Float64() > g.opts.CrossoverRate {
		return a.Clone()
	}
	child := make(space.Config, len(a))
	for _, p := range g.space.Params() {
		switch p.Kind {
		case space.KindFloat, space.KindInt:
			// BLX-style blend in value space.
			t := g.rng.Float64()
			av := a.Float(p.Name)
			bv := b.Float(p.Name)
			v := av*t + bv*(1-t)
			if p.Kind == space.KindInt {
				child[p.Name] = int64(math.Round(v))
			} else {
				child[p.Name] = v
			}
		default:
			if g.rng.Intn(2) == 0 {
				child[p.Name] = a[p.Name]
			} else {
				child[p.Name] = b[p.Name]
			}
		}
	}
	return g.space.Clip(child)
}

func (g *GA) mutate(cfg space.Config) space.Config {
	out := cfg.Clone()
	for _, p := range g.space.Params() {
		if g.rng.Float64() >= g.opts.MutationRate {
			continue
		}
		switch p.Kind {
		case space.KindFloat, space.KindInt:
			one := g.space.Neighbor(out, g.opts.MutationScale, g.rng)
			out[p.Name] = one[p.Name]
		case space.KindCategorical:
			out[p.Name] = p.Values[g.rng.Intn(len(p.Values))]
		case space.KindBool:
			out[p.Name] = !out.Bool(p.Name)
		}
	}
	return g.space.Clip(out)
}
