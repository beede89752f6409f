package projection

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"autotune/internal/bo"
	"autotune/internal/optimizer"
	"autotune/internal/space"
	"autotune/internal/trial"
)

// wideSpace builds a d-dimensional space where only two dims matter.
func wideSpace(d int) *space.Space {
	params := make([]space.Param, d)
	for i := range params {
		params[i] = space.Float(fmt.Sprintf("k%02d", i), 0, 1)
	}
	return space.MustNew(params...)
}

func wideObjective(c space.Config) float64 {
	// Only k00 and k01 matter.
	a := c.Float("k00") - 0.8
	b := c.Float("k01") - 0.2
	return a*a + b*b
}

func TestNewHeSBOValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewHeSBO(wideSpace(4), 0, rng); !errors.Is(err, ErrBadDim) {
		t.Fatalf("err = %v", err)
	}
	// dLow > d clamps.
	h, err := NewHeSBO(wideSpace(3), 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if h.LowSpace().Dim() != 3 {
		t.Fatalf("low dim = %d", h.LowSpace().Dim())
	}
}

func TestProjectProducesValidConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	full := space.MustNew(
		space.Float("a", 0, 100),
		space.Int("b", 1, 64),
		space.Categorical("c", "x", "y", "z"),
		space.Bool("d"),
		space.Float("e", 1, 1e6).WithLog(),
	)
	h, err := NewHeSBO(full, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		low := h.LowSpace().Sample(rng)
		fullCfg := h.Project(low)
		if err := full.Validate(fullCfg); err != nil {
			t.Fatalf("projected config invalid: %v", err)
		}
	}
}

func TestProjectionDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	full := wideSpace(8)
	h, _ := NewHeSBO(full, 3, rng)
	low := h.LowSpace().Sample(rand.New(rand.NewSource(4)))
	a := h.Project(low)
	b := h.Project(low)
	if a.Key() != b.Key() {
		t.Fatal("projection not deterministic without biasing")
	}
}

func TestSpecialBias(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	full := space.MustNew(
		space.Int("cache_mb", 0, 1024).WithSpecial(0), // 0 = off
		space.Float("x", 0, 1),
	)
	h, _ := NewHeSBO(full, 2, rng)
	h.SpecialBias = 0.5
	zeros := 0
	n := 400
	for i := 0; i < n; i++ {
		low := h.LowSpace().Sample(rng)
		cfg := h.Project(low)
		if cfg.Int("cache_mb") == 0 {
			zeros++
		}
	}
	// Without bias P(exactly 0) ~ 1/1025; with 50% bias it should be huge.
	if zeros < n/4 {
		t.Fatalf("special value hit %d/%d times, want >= %d", zeros, n, n/4)
	}
}

func TestBucketization(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	full := space.MustNew(space.Float("x", 0, 1))
	h, _ := NewHeSBO(full, 1, rng)
	h.Buckets = 4
	seen := map[string]bool{}
	for i := 0; i < 300; i++ {
		low := h.LowSpace().Sample(rng)
		cfg := h.Project(low)
		seen[cfg.Key()] = true
	}
	if len(seen) > 4 {
		t.Fatalf("bucketized projection produced %d distinct values, want <= 4", len(seen))
	}
}

func TestLowDimTuningFindsOptimum(t *testing.T) {
	// Tuning 16 knobs through a 4-d projection: BO over the low space
	// should still find a good config because the effective dim is 2.
	full := wideSpace(16)
	var projWins int
	seeds := 4
	for s := 0; s < seeds; s++ {
		rng := rand.New(rand.NewSource(int64(50 + s)))
		h, err := NewHeSBO(full, 4, rng)
		if err != nil {
			t.Fatal(err)
		}
		opt := bo.New(h.LowSpace(), rng)
		obj := h.Objective(wideObjective, nil)
		_, lowBest, err := minimize(opt, obj, 30)
		if err != nil {
			t.Fatal(err)
		}
		// Full-space random search with the same budget.
		rd := optimizer.NewRandom(full, rand.New(rand.NewSource(int64(50+s))))
		_, rdBest, err := minimize(rd, wideObjective, 30)
		if err != nil {
			t.Fatal(err)
		}
		if lowBest <= rdBest {
			projWins++
		}
	}
	if projWins < seeds/2 {
		t.Fatalf("projection won only %d/%d seeds", projWins, seeds)
	}
}

func TestObjectiveSink(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	full := wideSpace(6)
	h, _ := NewHeSBO(full, 2, rng)
	var gotLow, gotFull space.Config
	obj := h.Objective(wideObjective, func(low, fullCfg space.Config) {
		gotLow, gotFull = low, fullCfg
	})
	low := h.LowSpace().Sample(rng)
	obj(low)
	if gotLow == nil || gotFull == nil {
		t.Fatal("sink not called")
	}
	if err := full.Validate(gotFull); err != nil {
		t.Fatal(err)
	}
}

// minimize drives o against f for the budget through the tuning loop and
// returns the incumbent.
func minimize(o optimizer.Optimizer, f func(space.Config) float64, budget int) (space.Config, float64, error) {
	rep, err := trial.Run(trial.NewStudy(o, nil), &trial.FuncEnv{F: f}, trial.Options{Budget: budget})
	return rep.BestConfig, rep.BestValue, err
}
