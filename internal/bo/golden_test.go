package bo_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"autotune/internal/bo"
	"autotune/internal/optimizer"
	"autotune/internal/smac"
	"autotune/internal/space"
)

// goldenSpace is a 9-knob mixed space touching every encoding the
// acquisition search samples: linear and log floats, linear and log ints, a
// special value, two categoricals, a bool, and a conditional child.
func goldenSpace() *space.Space {
	return space.MustNew(
		space.Float("f_lin", -2, 2),
		space.Float("f_log", 1e-3, 10).WithLog(),
		space.Float("f_step", 0, 1).WithStep(0.05),
		space.Int("i_lin", 1, 64).WithDefault(int64(4)),
		space.Int("i_log", 16, 4096).WithLog().WithDefault(int64(128)),
		space.Int("i_special", 0, 100).WithDefault(int64(0)).WithSpecial(0),
		space.Categorical("method", "a", "b", "c", "d"),
		space.Bool("flag"),
		space.Int("child", 1, 1000).WithLog().WithDefault(int64(100)).WithParent("flag", "true"),
	)
}

// goldenObjective is positive, multimodal in the numeric knobs, and shifts
// with every categorical level, so each knob moves the incumbent.
func goldenObjective(cfg space.Config) float64 {
	v := 1 + math.Pow(cfg.Float("f_lin")-0.7, 2)
	v += math.Pow(math.Log10(cfg.Float("f_log"))+1, 2)
	v += 0.5 * math.Abs(cfg.Float("f_step")-0.35)
	v += math.Pow(float64(cfg.Int("i_lin"))/64-0.25, 2)
	v += 0.1 * math.Abs(math.Log2(float64(cfg.Int("i_log")))-9)
	if cfg.Int("i_special") != 0 {
		v += 0.3 + float64(cfg.Int("i_special"))/200
	}
	v += map[string]float64{"a": 0.4, "b": 0, "c": 0.9, "d": 0.2}[cfg.Str("method")]
	if cfg.Bool("flag") {
		v += 0.05 * math.Abs(math.Log10(float64(cfg.Int("child")))-1.5)
	} else {
		v += 0.15
	}
	return v
}

// TestGoldenSuggestStreams pins the config-key stream of a seeded 60-trial
// run per surrogate tier (and smac) to testdata/streams.golden. A refactor
// of the suggest path that claims "same behaviour" must leave this file
// untouched; regenerate deliberately with `UPDATE=1 go test ./internal/bo
// -run TestGoldenSuggestStreams` only when a behaviour change is the point.
func TestGoldenSuggestStreams(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden streams are pinned on amd64: fused multiply-add changes low bits elsewhere")
	}
	const budget, seed = 60, 12
	tierNoise := func(p bo.SurrogatePolicy, noise float64) func(*space.Space, *rand.Rand) optimizer.Optimizer {
		return func(s *space.Space, rng *rand.Rand) optimizer.Optimizer {
			// Budgets small enough that 60 trials saturate the sparse
			// inducing set and the local models' caps.
			return bo.NewWith(s, rng, bo.Options{
				OneHot: true, RefineIters: 40, FitHyperEvery: 10, Noise: noise,
				Surrogate: p, SparseBudget: 24, LocalCap: 24,
			})
		}
	}
	tier := func(p bo.SurrogatePolicy) func(*space.Space, *rand.Rand) optimizer.Optimizer {
		return tierNoise(p, 0)
	}
	arms := []struct {
		name string
		mk   func(*space.Space, *rand.Rand) optimizer.Optimizer
		// parentEvals, when set, is Stats().HyperEvals at the end of this
		// arm as counted at the commit before FitHyper got its stopping
		// tolerance; the arm must now spend at most half of it.
		parentEvals int
	}{
		{name: "dense", mk: tier(bo.SurrogateDense)},
		{name: "sparse", mk: tier(bo.SurrogateSparse)},
		{name: "forest", mk: tier(bo.SurrogateForest)},
		{name: "local", mk: tier(bo.SurrogateLocal)},
		{name: "smac", mk: func(s *space.Space, rng *rand.Rand) optimizer.Optimizer { return smac.New(s, rng) }},
		// From the default noise 1e-6 (ln = -13.8) every FitHyper candidate
		// near the start fails its -12 range check, so the arms above can
		// finish without one real hyperparameter search. This arm starts
		// in range: each of its refits searches, and its stream moves when
		// the search does.
		{name: "dense-noise1e-4", mk: tierNoise(bo.SurrogateDense, 1e-4), parentEvals: 2509},
	}
	var got bytes.Buffer
	for _, arm := range arms {
		opt := arm.mk(goldenSpace(), rand.New(rand.NewSource(seed)))
		for i := 0; i < budget; i++ {
			cfg, err := opt.Suggest()
			if err != nil {
				t.Fatalf("%s trial %d: %v", arm.name, i, err)
			}
			fmt.Fprintf(&got, "%s %02d %s\n", arm.name, i, cfg.Key())
			if err := opt.Observe(cfg, goldenObjective(cfg)); err != nil {
				t.Fatalf("%s trial %d: %v", arm.name, i, err)
			}
		}
		if arm.parentEvals > 0 {
			if st := opt.(*bo.BO).Stats(); st.HyperRefits != 5 || 2*st.HyperEvals > arm.parentEvals {
				t.Errorf("%s: %d hyper refits spent %d likelihood evaluations, want 5 refits and at most half of %d",
					arm.name, st.HyperRefits, st.HyperEvals, arm.parentEvals)
			}
		}
	}
	path := filepath.Join("testdata", "streams.golden")
	if os.Getenv("UPDATE") == "1" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with UPDATE=1): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("suggest stream diverges from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("suggest stream length differs from %s: got %d lines, want %d", path, len(gl), len(wl))
	}
}
