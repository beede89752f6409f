package cmaes

import (
	"math"
	"math/rand"
	"testing"

	"autotune/internal/optimizer"
	"autotune/internal/space"
	"autotune/internal/testfunc"
	"autotune/internal/trial"
)

func TestCMAESOnSphere(t *testing.T) {
	f := testfunc.Sphere(4)
	c := New(f.Space, rand.New(rand.NewSource(1)))
	_, val, err := minimize(c, f.Eval, 300)
	if err != nil {
		t.Fatal(err)
	}
	if val > 0.5 {
		t.Fatalf("CMA-ES best on sphere = %v", val)
	}
	if c.Generation() < 10 {
		t.Fatalf("generations = %d", c.Generation())
	}
}

func TestCMAESOnRosenbrock(t *testing.T) {
	f := testfunc.Rosenbrock(3)
	c := New(f.Space, rand.New(rand.NewSource(2)))
	_, val, err := minimize(c, f.Eval, 600)
	if err != nil {
		t.Fatal(err)
	}
	if val > 1.5 {
		t.Fatalf("CMA-ES best on rosenbrock = %v", val)
	}
}

func TestCMAESBeatsRandomOnRastrigin(t *testing.T) {
	f := testfunc.Rastrigin(4)
	budget := 400
	var cSum, rSum float64
	seeds := 5
	for i := 0; i < seeds; i++ {
		c := New(f.Space, rand.New(rand.NewSource(int64(20+i))))
		r := optimizer.NewRandom(f.Space, rand.New(rand.NewSource(int64(20+i))))
		_, cv, err := minimize(c, f.Eval, budget)
		if err != nil {
			t.Fatal(err)
		}
		_, rv, err := minimize(r, f.Eval, budget)
		if err != nil {
			t.Fatal(err)
		}
		cSum += cv
		rSum += rv
	}
	if cSum >= rSum {
		t.Fatalf("CMA-ES mean %v should beat random mean %v", cSum/float64(seeds), rSum/float64(seeds))
	}
}

func TestCMAESDefaultLambda(t *testing.T) {
	f := testfunc.Sphere(4)
	c := New(f.Space, rand.New(rand.NewSource(3)))
	want := 4 + int(math.Floor(3*math.Log(4)))
	if c.Lambda() != want {
		t.Fatalf("lambda = %d, want %d", c.Lambda(), want)
	}
	c2 := NewWith(f.Space, rand.New(rand.NewSource(3)), Options{Lambda: 10})
	if c2.Lambda() != 10 {
		t.Fatal("explicit lambda ignored")
	}
}

func TestCMAESSigmaAdapts(t *testing.T) {
	f := testfunc.Sphere(2)
	c := New(f.Space, rand.New(rand.NewSource(4)))
	s0 := c.Sigma()
	if _, _, err := minimize(c, f.Eval, 400); err != nil {
		t.Fatal(err)
	}
	// Near convergence the step size should have shrunk.
	if !(c.Sigma() < s0) {
		t.Fatalf("sigma did not shrink: %v -> %v", s0, c.Sigma())
	}
}

func TestCMAESSuggestNFullGeneration(t *testing.T) {
	f := testfunc.Sphere(3)
	c := New(f.Space, rand.New(rand.NewSource(5)))
	batch, err := c.SuggestN(c.Lambda())
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != c.Lambda() {
		t.Fatalf("batch = %d", len(batch))
	}
	for _, cfg := range batch {
		if err := f.Space.Validate(cfg); err != nil {
			t.Fatal(err)
		}
		c.Observe(cfg, f.Eval(cfg))
	}
	if c.Generation() != 1 {
		t.Fatalf("generation = %d after full batch", c.Generation())
	}
}

func TestCMAESOverSuggestDoesNotStall(t *testing.T) {
	f := testfunc.Sphere(2)
	c := New(f.Space, rand.New(rand.NewSource(6)))
	// Suggest more than lambda without observing: must not panic or stall.
	for i := 0; i < c.Lambda()+5; i++ {
		if _, err := c.Suggest(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCMAESForeignObservations(t *testing.T) {
	f := testfunc.Sphere(2)
	c := New(f.Space, rand.New(rand.NewSource(7)))
	rng := rand.New(rand.NewSource(8))
	// Warm-start observations that were never suggested.
	s := trial.NewStudy(c, nil)
	for i := 0; i < 5; i++ {
		cfg := f.Space.Sample(rng)
		if _, _, err := s.Observe([]trial.TrialRecord{{ID: i, Config: cfg, Value: f.Eval(cfg)}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Best(); !ok {
		t.Fatal("incumbent not tracked for foreign observations")
	}
	// Normal operation still works.
	if _, _, err := minimize(c, f.Eval, 100); err != nil {
		t.Fatal(err)
	}
}

func TestCMAESMixedSpaceDecodes(t *testing.T) {
	// CMA-ES on a space with categoricals: still functions (categoricals
	// ride the unit-cube encoding).
	sp := space.MustNew(
		space.Float("x", -5, 5),
		space.Categorical("c", "a", "b"),
	)
	f := func(cfg space.Config) float64 {
		v := cfg.Float("x") * cfg.Float("x")
		if cfg.Str("c") == "b" {
			v += 1
		}
		return v
	}
	c := New(sp, rand.New(rand.NewSource(9)))
	cfg, val, err := minimize(c, f, 200)
	if err != nil {
		t.Fatal(err)
	}
	if val > 1 || cfg.Str("c") != "a" {
		t.Fatalf("best = %v (%v)", cfg, val)
	}
}

// minimize drives o against f for the budget through the tuning loop and
// returns the incumbent.
func minimize(o optimizer.Optimizer, f func(space.Config) float64, budget int) (space.Config, float64, error) {
	rep, err := trial.Run(trial.NewStudy(o, nil), &trial.FuncEnv{F: f}, trial.Options{Budget: budget})
	return rep.BestConfig, rep.BestValue, err
}
