package bo

import (
	"math"
	"math/rand"
	"testing"

	"autotune/internal/optimizer"
	"autotune/internal/space"
	"autotune/internal/testfunc"
)

// driveBO runs a Suggest/Observe loop against f and returns the sequence of
// suggested configuration keys.
func driveBO(t *testing.T, b *BO, f func(space.Config) float64, budget int) []string {
	t.Helper()
	keys := make([]string, 0, budget)
	for i := 0; i < budget; i++ {
		cfg, err := b.Suggest()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, cfg.Key())
		if err := b.Observe(cfg, f(cfg)); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestParallelAcqMatchesSerial: the multi-start acquisition search must
// produce bitwise-identical suggestion sequences for any worker count,
// because restart RNGs derive from (seed, restart index) and results reduce
// in index order — never from goroutine scheduling.
func TestParallelAcqMatchesSerial(t *testing.T) {
	f := testfunc.Branin()
	budget := 30
	opts := func(workers int) Options {
		return Options{OneHot: true, RefineIters: 40, FitHyperEvery: 10, AcqWorkers: workers}
	}
	serial := driveBO(t, NewWith(f.Space, rand.New(rand.NewSource(42)), opts(1)), f.Eval, budget)
	for _, workers := range []int{2, 4, 8} {
		par := driveBO(t, NewWith(f.Space, rand.New(rand.NewSource(42)), opts(workers)), f.Eval, budget)
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d diverged from serial at step %d:\n  serial: %s\n  parallel: %s",
					workers, i, serial[i], par[i])
			}
		}
	}
}

// scratchBO is the from-scratch arm of the incremental-path tests: a fresh
// BO fed the whole history, whose first Predict is therefore one full fit
// over it (refit), never a rank-1 update.
func scratchBO(t *testing.T, s *space.Space, seed int64, opts Options, hist []optimizer.Observation) *BO {
	t.Helper()
	b := NewWith(s, rand.New(rand.NewSource(seed)), opts)
	for _, o := range hist {
		if err := b.Observe(o.Config, o.Value); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// TestIncrementalMatchesFullRefit feeds observations to an incremental-path
// BO and, after every absorption, requires its posterior to agree to 1e-8
// with a from-scratch fit of the same history.
func TestIncrementalMatchesFullRefit(t *testing.T) {
	s := space.MustNew(
		space.Float("x", 0, 1),
		space.Float("y", 0, 1),
		space.Categorical("mode", "a", "b", "c"),
	)
	f := func(c space.Config) float64 {
		base := map[string]float64{"a": 0.5, "b": 0, "c": 1}[c.Str("mode")]
		dx, dy := c.Float("x")-0.4, c.Float("y")-0.7
		return base + dx*dx + dy*dy
	}
	// FitHyperEvery 0 keeps both arms' kernels identical; hyper refits are
	// full refits on both paths anyway.
	opts := Options{OneHot: true, FitHyperEvery: 0}
	inc := NewWith(s, rand.New(rand.NewSource(7)), opts)
	rng := rand.New(rand.NewSource(99))
	probes := make([]space.Config, 10)
	for i := range probes {
		probes[i] = s.Sample(rng)
	}
	for i := 0; i < 40; i++ {
		cfg := s.Sample(rng)
		if err := inc.Observe(cfg, f(cfg)); err != nil {
			t.Fatal(err)
		}
		if i < 3 {
			continue // let the surrogate have a few points first
		}
		full := scratchBO(t, s, 7, opts, inc.History())
		for _, p := range probes {
			mi, si, ok1 := inc.Predict(p)
			mf, sf, ok2 := full.Predict(p)
			if !ok1 || !ok2 {
				t.Fatalf("step %d: Predict failed (inc ok=%v, full ok=%v)", i, ok1, ok2)
			}
			if math.Abs(mi-mf) > 1e-8 || math.Abs(si-sf) > 1e-8 {
				t.Fatalf("step %d: posterior diverged: mean %v vs %v, std %v vs %v",
					i, mi, mf, si, sf)
			}
		}
		if got := full.Stats().IncrementalUpdates; got != 0 {
			t.Fatalf("step %d: from-scratch arm used the incremental path %d times", i, got)
		}
	}
	if got := inc.Stats().IncrementalUpdates; got < 30 {
		t.Fatalf("incremental arm absorbed only %d observations incrementally", got)
	}
}

// TestIncrementalEnabledByDefault: a default-constructed BO must maintain
// its surrogate by rank-1 updates, with full refits only for the first
// model build and the periodic hyperparameter refit. The triple is exact
// for this seeded 35-step run (the absorption gate as a count: a
// regression to refit-per-observe reads 30 full refits, 0 incremental).
func TestIncrementalEnabledByDefault(t *testing.T) {
	f := testfunc.Branin()
	b := New(f.Space, rand.New(rand.NewSource(13)))
	driveBO(t, b, f.Eval, 35)
	st := b.Stats()
	// InitSamples 5, so the first build sees 5 observations; FitHyperEvery
	// 10 refits at histories 10, 20 and 30; the other 26 are absorbed.
	if st.FullRefits != 4 || st.HyperRefits != 3 || st.IncrementalUpdates != 26 {
		t.Fatalf("(full refits, hyper refits, incremental updates) = (%d, %d, %d), want (4, 3, 26)",
			st.FullRefits, st.HyperRefits, st.IncrementalUpdates)
	}
}

// TestLogYIncrementalShiftChange: under LogY, an observation that lowers
// the warp shift rewrites every past target, so it must force a full refit
// — and the result must match a from-scratch model exactly.
func TestLogYIncrementalShiftChange(t *testing.T) {
	s := space.MustNew(space.Float("x", 0, 1))
	opts := Options{OneHot: true, LogY: true, FitHyperEvery: 0}
	inc := NewWith(s, rand.New(rand.NewSource(21)), opts)
	feed := func(x, y float64) {
		if err := inc.Observe(space.Config{"x": x}, y); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		x := float64(i) / 8
		feed(x, 1+x*x) // all positive: shift stays 0
	}
	probe := space.Config{"x": 0.37}
	if _, _, ok := inc.Predict(probe); !ok {
		t.Fatal("warm-up Predict failed")
	}
	refitsBefore := inc.Stats().FullRefits
	// A negative observation forces the shifted log; the incremental path
	// must detect the shift change and rebuild.
	feed(0.9, -2)
	full := scratchBO(t, s, 21, opts, inc.History())
	mi, si, ok1 := inc.Predict(probe)
	mf, sf, ok2 := full.Predict(probe)
	if !ok1 || !ok2 {
		t.Fatal("Predict after shift change failed")
	}
	if inc.Stats().FullRefits != refitsBefore+1 {
		t.Fatalf("shift change did not trigger a full refit (refits %d -> %d)",
			refitsBefore, inc.Stats().FullRefits)
	}
	if math.Abs(mi-mf) > 1e-8 || math.Abs(si-sf) > 1e-8 {
		t.Fatalf("post-shift posterior diverged: mean %v vs %v, std %v vs %v", mi, mf, si, sf)
	}
}

// TestSearchSeedStable pins the restart-seed derivation: changing it would
// silently change every seeded run's suggestions.
func TestSearchSeedStable(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 64; i++ {
		s := searchSeed(12345, i)
		if s < 0 {
			t.Fatalf("restart %d: negative seed %d", i, s)
		}
		if seen[s] {
			t.Fatalf("restart %d: seed collision %d", i, s)
		}
		seen[s] = true
	}
	if a, b := searchSeed(1, 0), searchSeed(2, 0); a == b {
		t.Fatal("base seed must change restart seeds")
	}
}
