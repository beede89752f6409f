package genetic

import (
	"math"
	"math/rand"
	"testing"

	"autotune/internal/optimizer"
	"autotune/internal/space"
	"autotune/internal/testfunc"
	"autotune/internal/trial"
)

func TestGAOnSphere(t *testing.T) {
	f := testfunc.Sphere(4)
	g := New(f.Space, rand.New(rand.NewSource(1)))
	_, val, err := minimize(g, f.Eval, 500)
	if err != nil {
		t.Fatal(err)
	}
	if val > 1 {
		t.Fatalf("GA best = %v", val)
	}
	if g.Generation() < 5 {
		t.Fatalf("generations = %d", g.Generation())
	}
	if g.Name() != "genetic" {
		t.Fatal("name")
	}
}

func TestGAMixedSpace(t *testing.T) {
	sp := space.MustNew(
		space.Categorical("policy", "lru", "lfu", "clock"),
		space.Int("shards", 1, 64),
		space.Bool("compress"),
		space.Float("ratio", 0, 1),
	)
	f := func(c space.Config) float64 {
		v := math.Abs(c.Float("ratio") - 0.6)
		v += math.Abs(float64(c.Int("shards"))-16) / 64
		if c.Str("policy") != "lfu" {
			v += 1
		}
		if c.Bool("compress") {
			v += 0.5
		}
		return v
	}
	g := New(sp, rand.New(rand.NewSource(2)))
	cfg, val, err := minimize(g, f, 600)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Str("policy") != "lfu" || cfg.Bool("compress") {
		t.Fatalf("best cfg = %v (%v)", cfg, val)
	}
	if val > 0.4 {
		t.Fatalf("best val = %v", val)
	}
}

func TestGAElitePreservesBest(t *testing.T) {
	f := testfunc.Sphere(2)
	rep, err := trial.Run(trial.NewStudy(New(f.Space, rand.New(rand.NewSource(3))), nil), &trial.FuncEnv{F: f.Eval}, trial.Options{Budget: 300})
	if err != nil {
		t.Fatal(err)
	}
	bests := rep.BestOverTime()
	// Incumbent must be monotone non-increasing.
	for i := 1; i < len(bests); i++ {
		if bests[i] > bests[i-1]+1e-12 {
			t.Fatalf("incumbent regressed at %d: %v -> %v", i, bests[i-1], bests[i])
		}
	}
}

func TestGASuggestionsValid(t *testing.T) {
	sp := space.MustNew(
		space.Float("buffer_mb", 64, 16384).WithLog(),
		space.Int("threads", 1, 64),
		space.Categorical("flush", "a", "b", "c"),
	)
	g := New(sp, rand.New(rand.NewSource(4)))
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		cfg, err := g.Suggest()
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.Validate(cfg); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		g.Observe(cfg, rng.Float64())
	}
}

func TestGAOverSuggest(t *testing.T) {
	f := testfunc.Sphere(2)
	g := NewWith(f.Space, rand.New(rand.NewSource(6)), Options{Population: 6})
	// Ask far more than the population without observing.
	for i := 0; i < 20; i++ {
		if _, err := g.Suggest(); err != nil {
			t.Fatal(err)
		}
	}
	// Then observe the first 6 (by re-suggesting round robin the configs
	// returned may repeat, so just observe arbitrary samples and ensure no
	// deadlock).
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		cfg, _ := g.Suggest()
		g.Observe(cfg, f.Eval(cfg))
		_ = rng
	}
}

func TestGAFirstIsDefault(t *testing.T) {
	sp := space.MustNew(space.Float("x", 0, 1).WithDefault(0.123))
	g := New(sp, rand.New(rand.NewSource(8)))
	cfg, _ := g.Suggest()
	if cfg.Float("x") != 0.123 {
		t.Fatal("first suggestion should be default")
	}
}

// minimize drives o against f for the budget through the tuning loop and
// returns the incumbent.
func minimize(o optimizer.Optimizer, f func(space.Config) float64, budget int) (space.Config, float64, error) {
	rep, err := trial.Run(trial.NewStudy(o, nil), &trial.FuncEnv{F: f}, trial.Options{Budget: budget})
	return rep.BestConfig, rep.BestValue, err
}
