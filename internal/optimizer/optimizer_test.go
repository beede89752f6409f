package optimizer_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"autotune/internal/optimizer"
	"autotune/internal/space"
	"autotune/internal/testfunc"
	"autotune/internal/trial"
)

// minimize drives o against f for the budget through the tuning loop.
func minimize(o optimizer.Optimizer, f func(space.Config) float64, budget int) (trial.Report, error) {
	return trial.Run(trial.NewStudy(o, nil), &trial.FuncEnv{F: f}, trial.Options{Budget: budget})
}

func TestRandomSearchFindsDecentSphere(t *testing.T) {
	f := testfunc.Sphere(2)
	rng := rand.New(rand.NewSource(1))
	o := optimizer.NewRandom(f.Space, rng)
	rep, err := minimize(o, f.Eval, 200)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BestValue > 5 {
		t.Fatalf("random search best = %v", rep.BestValue)
	}
	if o.Name() != "random" {
		t.Fatal("name")
	}
}

func TestRandomSuggestN(t *testing.T) {
	s := space.MustNew(space.Float("x", 0, 1))
	o := optimizer.NewRandom(s, rand.New(rand.NewSource(2)))
	batch, err := o.SuggestN(5)
	if err != nil || len(batch) != 5 {
		t.Fatalf("batch = %v, %v", batch, err)
	}
}

func TestGridExhausts(t *testing.T) {
	s := space.MustNew(space.Float("x", 0, 1), space.Categorical("c", "a", "b"))
	o := optimizer.NewGridLevels(s, 3) // 3 * 2 = 6 points
	if o.Size() != 6 {
		t.Fatalf("size = %d", o.Size())
	}
	seen := map[string]bool{}
	for i := 0; i < 6; i++ {
		cfg, err := o.Suggest()
		if err != nil {
			t.Fatal(err)
		}
		seen[cfg.Key()] = true
	}
	if len(seen) != 6 {
		t.Fatalf("distinct points = %d", len(seen))
	}
	if _, err := o.Suggest(); !errors.Is(err, optimizer.ErrExhausted) {
		t.Fatalf("err = %v, want optimizer.ErrExhausted", err)
	}
}

func TestGridSuggestNPartial(t *testing.T) {
	s := space.MustNew(space.Float("x", 0, 1))
	o := optimizer.NewGridLevels(s, 3)
	batch, err := o.SuggestN(10)
	if err != nil || len(batch) != 3 {
		t.Fatalf("batch %d, err %v", len(batch), err)
	}
	if _, err := o.SuggestN(2); !errors.Is(err, optimizer.ErrExhausted) {
		t.Fatal("want exhausted")
	}
}

func TestGridFindsOptimumOnCurve(t *testing.T) {
	// On the sched curve with enough levels, grid finds the dip region.
	f := testfunc.SchedMigrationCurve()
	o := optimizer.NewGridLevels(f.Space, 101)
	rep, err := minimize(o, f.Eval, 101)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BestValue > 0.45 {
		t.Fatalf("dense grid best = %v, should find the dip", rep.BestValue)
	}
	// With only 5 levels the dip is missed.
	rep2, _ := minimize(optimizer.NewGridLevels(f.Space, 5), f.Eval, 5)
	if rep2.BestValue < 0.6 {
		t.Fatalf("coarse grid best = %v, should miss the dip", rep2.BestValue)
	}
}

func TestRunBudgetAndErrExhausted(t *testing.T) {
	s := space.MustNew(space.Float("x", 0, 1))
	o := optimizer.NewGridLevels(s, 3)
	calls := 0
	_, err := minimize(o, func(space.Config) float64 { calls++; return 0 }, 100)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3 (grid exhausted)", calls)
	}
}

func TestRunNoObservations(t *testing.T) {
	s := space.MustNew(space.Float("x", 0, 1))
	o := optimizer.NewGridLevels(s, 1)
	// Exhaust the grid first.
	o.Suggest()
	if _, err := minimize(o, func(space.Config) float64 { return 0 }, 5); err == nil {
		t.Fatal("expected error with zero observations")
	}
}

func TestAnnealImprovesOverStart(t *testing.T) {
	s := space.MustNew(
		space.Float("a", -5, 5).WithDefault(4.0),
		space.Float("b", -5, 5).WithDefault(-4.0),
		space.Float("c", -5, 5).WithDefault(4.0),
	)
	eval := func(c space.Config) float64 {
		return c.Float("a")*c.Float("a") + c.Float("b")*c.Float("b") + c.Float("c")*c.Float("c")
	}
	rng := rand.New(rand.NewSource(3))
	o := optimizer.NewAnneal(s, rng)
	o.StepScale = 0.15
	start := eval(s.Default())
	rep, err := minimize(o, eval, 300)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BestValue >= start {
		t.Fatalf("anneal best %v did not improve on start %v", rep.BestValue, start)
	}
	if rep.BestValue > 2 {
		t.Fatalf("anneal best = %v, too poor", rep.BestValue)
	}
}

func TestAnnealTemperatureCools(t *testing.T) {
	s := space.MustNew(space.Float("x", 0, 1))
	o := optimizer.NewAnneal(s, rand.New(rand.NewSource(4)))
	t0 := o.Temperature()
	for i := 0; i < 10; i++ {
		cfg, _ := o.Suggest()
		o.Observe(cfg, 1)
	}
	if !(o.Temperature() < t0) {
		t.Fatalf("temperature did not cool: %v -> %v", t0, o.Temperature())
	}
}

func TestAnnealFirstSuggestionIsDefault(t *testing.T) {
	s := space.MustNew(space.Float("x", 0, 1).WithDefault(0.7))
	o := optimizer.NewAnneal(s, rand.New(rand.NewSource(5)))
	cfg, err := o.Suggest()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Float("x") != 0.7 {
		t.Fatalf("first suggestion = %v, want default", cfg)
	}
}

func TestCoordinateDescentQuadratic(t *testing.T) {
	// Separable quadratic: coordinate descent is an excellent fit.
	s := space.MustNew(space.Float("a", -5, 5), space.Float("b", -5, 5))
	f := func(c space.Config) float64 {
		return (c.Float("a")-2.5)*(c.Float("a")-2.5) + (c.Float("b")+2.5)*(c.Float("b")+2.5)
	}
	o := optimizer.NewCoordinate(s, rand.New(rand.NewSource(6)))
	o.LevelsPerParam = 11
	rep, err := minimize(o, f, 50)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BestValue > 0.5 {
		t.Fatalf("coordinate best = %v", rep.BestValue)
	}
	if o.Name() != "coordinate" {
		t.Fatal("name")
	}
}

func TestCoordinateHandlesCategorical(t *testing.T) {
	s := space.MustNew(space.Categorical("c", "bad", "good"), space.Float("x", 0, 1))
	f := func(c space.Config) float64 {
		v := c.Float("x")
		if c.Str("c") == "good" {
			return v
		}
		return v + 10
	}
	o := optimizer.NewCoordinate(s, rand.New(rand.NewSource(7)))
	rep, err := minimize(o, f, 40)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BestConfig.Str("c") != "good" {
		t.Fatalf("best cfg = %v (val %v)", rep.BestConfig, rep.BestValue)
	}
}

func TestObserveToleratesUnsuggested(t *testing.T) {
	// Optimizers must accept observations they did not suggest (for warm
	// starting / transfer), and the study around them records the incumbent.
	f := testfunc.Sphere(2)
	rng := rand.New(rand.NewSource(8))
	opts := []optimizer.Optimizer{
		optimizer.NewRandom(f.Space, rng),
		optimizer.NewGrid(f.Space, 9),
		optimizer.NewAnneal(f.Space, rng),
		optimizer.NewCoordinate(f.Space, rng),
	}
	for _, o := range opts {
		cfg := f.Space.Sample(rng)
		s := trial.NewStudy(o, nil)
		if _, _, err := s.Observe([]trial.TrialRecord{{Config: cfg, Value: f.Eval(cfg)}}); err != nil {
			t.Fatalf("%s: %v", o.Name(), err)
		}
		if _, ok := s.Best(); !ok {
			t.Fatalf("%s: Best not set after Observe", o.Name())
		}
	}
}

func TestBestIsMinimum(t *testing.T) {
	f := testfunc.Branin()
	rng := rand.New(rand.NewSource(9))
	o := optimizer.NewRandom(f.Space, rng)
	rep, err := minimize(o, f.Eval, 100)
	if err != nil {
		t.Fatal(err)
	}
	minSeen := math.Inf(1)
	for _, tr := range rep.Trials {
		if tr.Value < minSeen {
			minSeen = tr.Value
		}
	}
	if rep.BestValue != minSeen {
		t.Fatalf("Best %v != min history %v", rep.BestValue, minSeen)
	}
}
