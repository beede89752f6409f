package bo

import (
	"math"
	"math/rand"
	"testing"

	"autotune/internal/optimizer"
	"autotune/internal/space"
	"autotune/internal/testfunc"
	"autotune/internal/trial"
)

func TestAcquisitionShapes(t *testing.T) {
	pi, ei, lcb := NewPI(), NewEI(), NewLCB()
	best := 1.0
	// A point predicted clearly better than best scores high.
	if pi.Score(0, 0.1, best) < 0.99 {
		t.Fatal("PI should be ~1 for clear improvement")
	}
	if !(ei.Score(0, 0.1, best) > ei.Score(0.9, 0.1, best)) {
		t.Fatal("EI should prefer larger improvement")
	}
	// More uncertainty increases EI when means are equal.
	if !(ei.Score(1, 0.5, best) > ei.Score(1, 0.01, best)) {
		t.Fatal("EI should reward uncertainty")
	}
	// LCB prefers low mean and high variance.
	if !(lcb.Score(0, 0.1, best) > lcb.Score(1, 0.1, best)) {
		t.Fatal("LCB should prefer low mean")
	}
	if !(lcb.Score(1, 1, best) > lcb.Score(1, 0.1, best)) {
		t.Fatal("LCB should prefer high std")
	}
}

func TestAcquisitionZeroStd(t *testing.T) {
	ei, pi := NewEI(), NewPI()
	if got := ei.Score(0.5, 0, 1); math.Abs(got-(1-0.01-0.5)) > 1e-12 {
		t.Fatalf("EI zero-std improvement = %v", got)
	}
	if got := ei.Score(2, 0, 1); got != 0 {
		t.Fatalf("EI zero-std no improvement = %v", got)
	}
	if pi.Score(0.5, 0, 1) != 1 || pi.Score(2, 0, 1) != 0 {
		t.Fatal("PI zero-std wrong")
	}
}

func TestByName(t *testing.T) {
	if ByName("pi").Name() != "pi" || ByName("lcb").Name() != "lcb" ||
		ByName("ei").Name() != "ei" || ByName("bogus").Name() != "ei" {
		t.Fatal("ByName wrong")
	}
}

func TestClampInvalid(t *testing.T) {
	ys := clampInvalid([]float64{1, 2, math.Inf(1), math.NaN(), 3})
	for _, y := range ys {
		if math.IsInf(y, 0) || math.IsNaN(y) {
			t.Fatalf("clamp left invalid value: %v", ys)
		}
	}
	if !(ys[2] > 3 && ys[3] > 3) {
		t.Fatalf("penalty should exceed worst: %v", ys)
	}
	if ys[0] != 1 || ys[4] != 3 {
		t.Fatal("finite values should be untouched")
	}
	// All invalid.
	all := clampInvalid([]float64{math.Inf(1), math.NaN()})
	for _, y := range all {
		if math.IsInf(y, 0) || math.IsNaN(y) {
			t.Fatal("all-invalid clamp failed")
		}
	}
	// Constant values: penalty still strictly greater.
	c := clampInvalid([]float64{5, 5, math.Inf(1)})
	if !(c[2] > 5) {
		t.Fatalf("constant clamp = %v", c)
	}
}

func TestBOOnBranin(t *testing.T) {
	f := testfunc.Branin()
	rng := rand.New(rand.NewSource(1))
	b := New(f.Space, rng)
	_, val, err := minimize(b, f.Eval, 40)
	if err != nil {
		t.Fatal(err)
	}
	if val > f.Optimum+1.0 {
		t.Fatalf("BO best = %v, want near %v", val, f.Optimum)
	}
}

func TestBOBeatsRandomOnSchedCurve(t *testing.T) {
	f := testfunc.SchedMigrationCurve()
	budget := 25
	seeds := 8
	boWins := 0
	for s := 0; s < seeds; s++ {
		rngB := rand.New(rand.NewSource(int64(100 + s)))
		rngR := rand.New(rand.NewSource(int64(100 + s)))
		b := New(f.Space, rngB)
		r := optimizer.NewRandom(f.Space, rngR)
		_, bv, err := minimize(b, f.Eval, budget)
		if err != nil {
			t.Fatal(err)
		}
		_, rv, err := minimize(r, f.Eval, budget)
		if err != nil {
			t.Fatal(err)
		}
		if bv <= rv {
			boWins++
		}
	}
	if boWins < seeds/2+1 {
		t.Fatalf("BO won only %d/%d seeds vs random", boWins, seeds)
	}
}

func TestBOFirstSuggestionIsDefault(t *testing.T) {
	s := space.MustNew(space.Float("x", 0, 1).WithDefault(0.3))
	b := New(s, rand.New(rand.NewSource(2)))
	cfg, err := b.Suggest()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Float("x") != 0.3 {
		t.Fatalf("first suggestion = %v, want default", cfg)
	}
}

func TestBOHandlesCrashValues(t *testing.T) {
	// Objective returns +Inf in half the space; BO must keep functioning.
	s := space.MustNew(space.Float("x", 0, 1))
	f := func(c space.Config) float64 {
		x := c.Float("x")
		if x > 0.5 {
			return math.Inf(1)
		}
		return (x - 0.3) * (x - 0.3)
	}
	b := New(s, rand.New(rand.NewSource(3)))
	cfg, val, err := minimize(b, f, 25)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(val, 0) {
		t.Fatal("best value is Inf")
	}
	if math.Abs(cfg.Float("x")-0.3) > 0.15 {
		t.Fatalf("best x = %v, want near 0.3", cfg.Float("x"))
	}
}

func TestBOCategoricalSpace(t *testing.T) {
	s := space.MustNew(
		space.Categorical("mode", "slow", "fast", "turbo"),
		space.Float("x", 0, 1),
	)
	f := func(c space.Config) float64 {
		base := map[string]float64{"slow": 2, "fast": 1, "turbo": 0}[c.Str("mode")]
		return base + (c.Float("x")-0.5)*(c.Float("x")-0.5)
	}
	b := New(s, rand.New(rand.NewSource(4)))
	cfg, _, err := minimize(b, f, 35)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Str("mode") != "turbo" {
		t.Fatalf("best mode = %v", cfg.Str("mode"))
	}
}

func TestBOSuggestNDiverse(t *testing.T) {
	f := testfunc.Branin()
	rng := rand.New(rand.NewSource(5))
	b := New(f.Space, rng)
	// Seed some observations.
	for i := 0; i < 8; i++ {
		cfg := f.Space.Sample(rng)
		b.Observe(cfg, f.Eval(cfg))
	}
	batch, err := b.SuggestN(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 4 {
		t.Fatalf("batch = %d", len(batch))
	}
	keys := map[string]bool{}
	for _, c := range batch {
		keys[c.Key()] = true
	}
	if len(keys) < 3 {
		t.Fatalf("constant liar produced %d distinct of 4", len(keys))
	}
}

func TestBOPredict(t *testing.T) {
	s := space.MustNew(space.Float("x", 0, 1))
	b := New(s, rand.New(rand.NewSource(6)))
	if _, _, ok := b.Predict(s.Default()); ok {
		t.Fatal("Predict before data should be !ok")
	}
	for i := 0; i <= 10; i++ {
		x := float64(i) / 10
		b.Observe(space.Config{"x": x}, x*x)
	}
	mu, sd, ok := b.Predict(space.Config{"x": 0.5})
	if !ok {
		t.Fatal("Predict failed")
	}
	if math.Abs(mu-0.25) > 0.1 {
		t.Fatalf("predicted mean = %v, want ~0.25", mu)
	}
	if sd < 0 {
		t.Fatal("negative std")
	}
}

func TestBODedupsTinyDiscreteSpace(t *testing.T) {
	// 3-point space: after all are observed, suggestions must still work.
	s := space.MustNew(space.Int("n", 1, 3))
	f := func(c space.Config) float64 { return float64(c.Int("n")) }
	b := NewWith(s, rand.New(rand.NewSource(7)), Options{InitSamples: 2, Candidates: 64})
	_, val, err := minimize(b, f, 10)
	if err != nil {
		t.Fatal(err)
	}
	if val != 1 {
		t.Fatalf("best = %v, want 1", val)
	}
}

func TestBOName(t *testing.T) {
	s := space.MustNew(space.Float("x", 0, 1))
	if New(s, rand.New(rand.NewSource(8))).Name() != "bo-ei" {
		t.Fatal("name")
	}
	b := NewWith(s, rand.New(rand.NewSource(8)), Options{Acq: NewLCB()})
	if b.Name() != "bo-lcb" {
		t.Fatal("name with lcb")
	}
}

func TestLogYOption(t *testing.T) {
	// A heavy-tailed surface: LogY must still find the optimum, and the
	// surrogate must handle non-positive values via the shifted log.
	s := space.MustNew(space.Float("x", 0, 1))
	f := func(c space.Config) float64 {
		x := c.Float("x")
		return math.Exp(8*math.Abs(x-0.3)) - 2 // ranges from -1 to ~270
	}
	b := NewWith(s, rand.New(rand.NewSource(10)), Options{LogY: true, OneHot: true})
	cfg, _, err := minimize(b, f, 30)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cfg.Float("x")-0.3) > 0.1 {
		t.Fatalf("best x = %v, want ~0.3", cfg.Float("x"))
	}
	// Predict works in warped units.
	if _, sd, ok := b.Predict(s.Default()); !ok || sd < 0 {
		t.Fatal("Predict under LogY failed")
	}
}

func TestStratifiedWarmupCoversLevels(t *testing.T) {
	s := space.MustNew(
		space.Categorical("c", "a", "b", "d", "e", "f", "g"),
		space.Float("x", 0, 1),
	)
	b := New(s, rand.New(rand.NewSource(11)))
	seen := map[string]bool{}
	// Default InitSamples is levels+1 = 7; the stratified warm-up must
	// visit every level at least once.
	for i := 0; i < 7; i++ {
		cfg, err := b.Suggest()
		if err != nil {
			t.Fatal(err)
		}
		seen[cfg.Str("c")] = true
		b.Observe(cfg, float64(i))
	}
	if len(seen) != 6 {
		t.Fatalf("warm-up covered %d/6 levels: %v", len(seen), seen)
	}
}

func TestSuggestNBeforeWarmupDone(t *testing.T) {
	s := space.MustNew(space.Float("x", 0, 1))
	b := New(s, rand.New(rand.NewSource(12)))
	batch, err := b.SuggestN(3)
	if err != nil || len(batch) != 3 {
		t.Fatalf("batch %v err %v", batch, err)
	}
}

// minimize drives o against f for the budget through the tuning loop and
// returns the incumbent.
func minimize(o optimizer.Optimizer, f func(space.Config) float64, budget int) (space.Config, float64, error) {
	rep, err := trial.Run(trial.NewStudy(o, nil), &trial.FuncEnv{F: f}, trial.Options{Budget: budget})
	return rep.BestConfig, rep.BestValue, err
}
