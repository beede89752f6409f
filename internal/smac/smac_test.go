package smac

import (
	"math"
	"math/rand"
	"testing"

	"autotune/internal/optimizer"
	"autotune/internal/space"
	"autotune/internal/testfunc"
	"autotune/internal/trial"
)

func TestSMACOnSphere(t *testing.T) {
	f := testfunc.Sphere(3)
	s := New(f.Space, rand.New(rand.NewSource(1)))
	_, val, err := minimize(s, f.Eval, 60)
	if err != nil {
		t.Fatal(err)
	}
	if val > 3 {
		t.Fatalf("SMAC best = %v", val)
	}
	if s.Name() != "smac" {
		t.Fatal("name")
	}
}

func TestSMACBeatsRandomOnHybridSpace(t *testing.T) {
	// Hybrid space where a categorical dominates: trees shine here.
	sp := space.MustNew(
		space.Categorical("flush", "fsync", "littlesync", "nosync", "O_DSYNC", "O_DIRECT"),
		space.Float("buf", 0, 1),
		space.Int("threads", 1, 32),
	)
	f := func(c space.Config) float64 {
		base := map[string]float64{
			"fsync": 3, "littlesync": 2.5, "nosync": 0.5, "O_DSYNC": 2, "O_DIRECT": 1,
		}[c.Str("flush")]
		return base + math.Abs(c.Float("buf")-0.7) + math.Abs(float64(c.Int("threads"))-20)/32
	}
	budget := 40
	wins := 0
	seeds := 6
	for i := 0; i < seeds; i++ {
		sm := New(sp, rand.New(rand.NewSource(int64(10+i))))
		rd := optimizer.NewRandom(sp, rand.New(rand.NewSource(int64(10+i))))
		_, sv, err := minimize(sm, f, budget)
		if err != nil {
			t.Fatal(err)
		}
		_, rv, err := minimize(rd, f, budget)
		if err != nil {
			t.Fatal(err)
		}
		if sv <= rv {
			wins++
		}
	}
	if wins < seeds/2 {
		t.Fatalf("SMAC won only %d/%d", wins, seeds)
	}
}

func TestSMACFindsBestCategory(t *testing.T) {
	sp := space.MustNew(space.Categorical("c", "a", "b", "good", "d"))
	f := func(cfg space.Config) float64 {
		if cfg.Str("c") == "good" {
			return 0
		}
		return 1
	}
	s := New(sp, rand.New(rand.NewSource(2)))
	cfg, val, err := minimize(s, f, 15)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Str("c") != "good" || val != 0 {
		t.Fatalf("best = %v (%v)", cfg, val)
	}
}

func TestSMACSuggestNDistinct(t *testing.T) {
	f := testfunc.Branin()
	s := New(f.Space, rand.New(rand.NewSource(3)))
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 8; i++ {
		cfg := f.Space.Sample(rng)
		s.Observe(cfg, f.Eval(cfg))
	}
	batch, err := s.SuggestN(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 5 {
		t.Fatalf("batch = %d", len(batch))
	}
	keys := map[string]bool{}
	for _, c := range batch {
		keys[c.Key()] = true
	}
	if len(keys) != 5 {
		t.Fatalf("distinct = %d of 5", len(keys))
	}
}

func TestSMACImportanceRanksKnobs(t *testing.T) {
	sp := space.MustNew(
		space.Float("important", 0, 1),
		space.Float("minor", 0, 1),
		space.Float("noise", 0, 1),
	)
	f := func(c space.Config) float64 {
		return 10*c.Float("important") + 0.5*c.Float("minor")
	}
	s := New(sp, rand.New(rand.NewSource(5)))
	if s.Importance() != nil {
		t.Fatal("importance with no data should be nil")
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 150; i++ {
		cfg := sp.Sample(rng)
		s.Observe(cfg, f(cfg))
	}
	imp := s.Importance()
	if len(imp) != 3 {
		t.Fatalf("importance len = %d", len(imp))
	}
	if !(imp[0] > imp[1] && imp[0] > imp[2]) {
		t.Fatalf("importances = %v", imp)
	}
}

func TestSMACHandlesCrashes(t *testing.T) {
	sp := space.MustNew(space.Float("x", 0, 1))
	f := func(c space.Config) float64 {
		if c.Float("x") > 0.6 {
			return math.Inf(1)
		}
		return math.Abs(c.Float("x") - 0.4)
	}
	s := New(sp, rand.New(rand.NewSource(7)))
	cfg, val, err := minimize(s, f, 30)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(val, 0) || math.Abs(cfg.Float("x")-0.4) > 0.2 {
		t.Fatalf("best = %v (%v)", cfg, val)
	}
}

func TestSMACFirstSuggestionDefault(t *testing.T) {
	sp := space.MustNew(space.Float("x", 0, 1).WithDefault(0.9))
	s := New(sp, rand.New(rand.NewSource(8)))
	cfg, err := s.Suggest()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Float("x") != 0.9 {
		t.Fatal("first suggestion should be the default config")
	}
}

// TestSMACDeepHistoryAmortizesRefits drives SMAC past the DeepHistory
// threshold and requires the refit count to stay well below the suggest
// count: maintenance amortizes to once per max(8, n/16) observations while
// suggestions keep flowing from the recent forest.
func TestSMACDeepHistoryAmortizesRefits(t *testing.T) {
	f := testfunc.Branin()
	s := NewWith(f.Space, rand.New(rand.NewSource(4)), Options{
		DeepHistory: 32, Candidates: 64, RandomInterleave: -1,
	})
	steps := 200
	for i := 0; i < steps; i++ {
		cfg, err := s.Suggest()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Observe(cfg, f.Eval(cfg)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Refits == 0 {
		t.Fatal("forest never fit")
	}
	// 200 observations with cadence >= 8 past n=32: ~32 refits up front
	// plus ~21 amortized, far below one per step.
	if st.Refits > steps/2 {
		t.Fatalf("refits not amortized: %d refits for %d suggests", st.Refits, steps)
	}
	if n := len(s.hist); st.Fitted < n-n/8 {
		t.Fatalf("served forest too stale: fitted %d of %d", st.Fitted, n)
	}
	// Below the threshold the original refit-per-dirty-suggest behavior
	// must be preserved exactly.
	dense := NewWith(f.Space, rand.New(rand.NewSource(4)), Options{
		DeepHistory: 10000, Candidates: 64, RandomInterleave: -1, InitSamples: 5,
	})
	for i := 0; i < 30; i++ {
		cfg, err := dense.Suggest()
		if err != nil {
			t.Fatal(err)
		}
		if err := dense.Observe(cfg, f.Eval(cfg)); err != nil {
			t.Fatal(err)
		}
	}
	// One more Suggest absorbs the final pending observation.
	if _, err := dense.Suggest(); err != nil {
		t.Fatal(err)
	}
	if got := dense.Stats(); got.Fitted != len(dense.hist) {
		t.Fatalf("below threshold the forest must track history exactly: fitted %d of %d", got.Fitted, len(dense.hist))
	}
}

// minimize drives o against f for the budget through the tuning loop and
// returns the incumbent.
func minimize(o optimizer.Optimizer, f func(space.Config) float64, budget int) (space.Config, float64, error) {
	rep, err := trial.Run(trial.NewStudy(o, nil), &trial.FuncEnv{F: f}, trial.Options{Budget: budget})
	return rep.BestConfig, rep.BestValue, err
}
