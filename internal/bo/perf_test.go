package bo

import (
	"math/rand"
	"testing"

	"autotune/internal/space"
	"autotune/internal/testfunc"
)

// suggestAllocBudget is the documented per-call ceiling for a warm Suggest
// with refinement and hyperparameter refits disabled: materializing the
// winning Config (one small map plus boxed values), recording the
// observation, and occasional amortized growth of the encoded dedup set.
// The pre-optimization loop measured in the thousands (a Config, two
// encodings, and a Key string per candidate, times 512 candidates).
const suggestAllocBudget = 40

// TestSuggestWarmAllocs pins the steady-state allocation cost of the flat
// acquisition loop.
func TestSuggestWarmAllocs(t *testing.T) {
	f := testfunc.Branin()
	b := NewWith(f.Space, rand.New(rand.NewSource(3)), Options{
		OneHot:        true,
		RefineIters:   0,
		FitHyperEvery: 0,
		AcqWorkers:    1,
	})
	for i := 0; i < 12; i++ { // warm-up: init samples, model build, buffers
		cfg, err := b.Suggest()
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Observe(cfg, f.Eval(cfg)); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		cfg, err := b.Suggest()
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Observe(cfg, f.Eval(cfg)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > suggestAllocBudget {
		t.Fatalf("warm Suggest+Observe allocates %v per call, budget %d", allocs, suggestAllocBudget)
	}
}

// TestGPWorkersDeterministic: the surrogate's row-parallel gram and batched
// prediction must not perturb suggestions — any GPWorkers value yields the
// identical seeded sequence.
func TestGPWorkersDeterministic(t *testing.T) {
	f := testfunc.Branin()
	budget := 25
	opts := func(workers int) Options {
		return Options{OneHot: true, RefineIters: 40, FitHyperEvery: 10, GPWorkers: workers}
	}
	serial := driveBO(t, NewWith(f.Space, rand.New(rand.NewSource(11)), opts(1)), f.Eval, budget)
	for _, workers := range []int{2, 4} {
		par := driveBO(t, NewWith(f.Space, rand.New(rand.NewSource(11)), opts(workers)), f.Eval, budget)
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("GPWorkers=%d diverged at step %d:\n  serial: %s\n  parallel: %s",
					workers, i, serial[i], par[i])
			}
		}
	}
}

// TestFastDedupAvoidsRepeats: on a tiny discrete space where the candidate
// pool quickly covers everything, the encoded dedup must still prefer
// unevaluated configurations while history has gaps.
func TestFastDedupAvoidsRepeats(t *testing.T) {
	s := space.MustNew(
		space.Categorical("a", "x", "y", "z"),
		space.Bool("b"),
	)
	b := NewWith(s, rand.New(rand.NewSource(5)), Options{
		OneHot: true, InitSamples: 2, RefineIters: 0, FitHyperEvery: 0,
	})
	seen := map[string]bool{}
	for i := 0; i < 6; i++ {
		cfg, err := b.Suggest()
		if err != nil {
			t.Fatal(err)
		}
		k := cfg.Key()
		// Warm-up draws (default + stratified) don't consult the dedup set.
		if i >= 2 && seen[k] && len(seen) < 6 {
			t.Fatalf("step %d repeated %s with %d/6 configs unexplored", i, k, 6-len(seen))
		}
		seen[k] = true
		if err := b.Observe(cfg, float64(len(k)%3)); err != nil {
			t.Fatal(err)
		}
	}
}
