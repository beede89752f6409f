package transfer

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"autotune/internal/optimizer"
	"autotune/internal/space"
	"autotune/internal/trial"
)

func mkRecord(wl map[string]float64, trials ...Trial) Record {
	return Record{Workload: wl, Trials: trials}
}

// observed keeps what WarmStart feeds the strategy it wraps: the strategy
// itself keeps no history.
type observed struct {
	optimizer.Optimizer
	obs []optimizer.Observation
}

func newObserved(s *space.Space, seed int64) *observed {
	return &observed{Optimizer: optimizer.NewRandom(s, rand.New(rand.NewSource(seed)))}
}

func (o *observed) Observe(cfg space.Config, v float64) error {
	o.obs = append(o.obs, optimizer.Observation{Config: cfg, Value: v})
	return o.Optimizer.Observe(cfg, v)
}

// best is the lowest value observed, +Inf before any.
func (o *observed) best() float64 {
	best := math.Inf(1)
	for _, obs := range o.obs {
		best = math.Min(best, obs.Value)
	}
	return best
}

func TestSimilarity(t *testing.T) {
	a := map[string]float64{"read": 0.9, "ws": 1.0}
	if got := Similarity(a, a); got != 1 {
		t.Fatalf("self similarity = %v", got)
	}
	b := map[string]float64{"read": 0.1, "ws": 0.2}
	if got := Similarity(a, b); got >= 1 || got <= 0 {
		t.Fatalf("similarity = %v", got)
	}
	// Missing keys treated as zero.
	c := map[string]float64{"read": 0.9}
	if Similarity(a, c) >= Similarity(a, a) {
		t.Fatal("missing key should reduce similarity")
	}
}

func TestNearestOrders(t *testing.T) {
	var st Store
	st.Add(mkRecord(map[string]float64{"x": 0}))
	st.Add(mkRecord(map[string]float64{"x": 1}))
	st.Add(mkRecord(map[string]float64{"x": 5}))
	recs, err := st.Nearest(map[string]float64{"x": 0.9}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Workload["x"] != 1 || recs[1].Workload["x"] != 0 {
		t.Fatalf("nearest = %v", recs)
	}
	// k overflow clamps.
	recs, _ = st.Nearest(map[string]float64{"x": 0}, 99)
	if len(recs) != 3 {
		t.Fatalf("len = %d", len(recs))
	}
}

func TestNearestEmpty(t *testing.T) {
	var st Store
	if _, err := st.Nearest(map[string]float64{}, 1); !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v", err)
	}
	if st.Len() != 0 {
		t.Fatal("len")
	}
}

func TestWarmStartReplaysBestFirst(t *testing.T) {
	s := space.MustNew(space.Float("x", 0, 1))
	rec := mkRecord(nil,
		Trial{space.Config{"x": 0.1}, 5},
		Trial{space.Config{"x": 0.2}, 1},
		Trial{space.Config{"x": 0.3}, 3},
	)
	o := newObserved(s, 1)
	n, err := WarmStart(o, []Record{rec}, WarmStartOptions{MaxTrials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("replayed = %d", n)
	}
	if best := o.best(); best != 1 {
		t.Fatalf("best = %v", best)
	}
	// The dropped trial must be the worst one (value 5).
	for _, obs := range o.obs {
		if obs.Value == 5 {
			t.Fatal("worst trial should have been dropped under MaxTrials")
		}
	}
}

func TestWarmStartCrashImputation(t *testing.T) {
	s := space.MustNew(space.Float("x", 0, 1))
	rec := mkRecord(nil,
		Trial{space.Config{"x": 0.2}, 10},
		Trial{space.Config{"x": 0.9}, CrashValue},
	)
	o := newObserved(s, 2)
	n, err := WarmStart(o, []Record{rec}, WarmStartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("replayed = %d", n)
	}
	var crashScore float64
	for _, obs := range o.obs {
		if obs.Config.Float("x") == 0.9 {
			crashScore = obs.Value
		}
	}
	if math.IsInf(crashScore, 0) || crashScore <= 10 {
		t.Fatalf("crash score = %v, want finite > worst", crashScore)
	}
}

func TestWarmStartCrashAlwaysReplayed(t *testing.T) {
	// Even with MaxTrials=1, crashes are replayed ("reuse everywhere").
	s := space.MustNew(space.Float("x", 0, 1))
	rec := mkRecord(nil,
		Trial{space.Config{"x": 0.1}, 1},
		Trial{space.Config{"x": 0.2}, 2},
		Trial{space.Config{"x": 0.9}, CrashValue},
	)
	o := optimizer.NewRandom(s, rand.New(rand.NewSource(3)))
	n, err := WarmStart(o, []Record{rec}, WarmStartOptions{MaxTrials: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 { // 1 good + 1 crash
		t.Fatalf("replayed = %d", n)
	}
}

func TestWarmStartSimilarityWeighting(t *testing.T) {
	s := space.MustNew(space.Float("x", 0, 1))
	target := map[string]float64{"rate": 0}
	near := mkRecord(map[string]float64{"rate": 0}, Trial{space.Config{"x": 0.1}, 0})
	far := mkRecord(map[string]float64{"rate": 10}, Trial{space.Config{"x": 0.9}, 0})
	o := optimizer.NewRandom(s, rand.New(rand.NewSource(4)))
	_, err := WarmStart(o, []Record{near, far}, WarmStartOptions{
		SimilarityWeighting: true,
		TargetWorkload:      target,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Far sample's score (0, the best) should be shrunk toward the mean (0
	// here as both are 0) — construct asymmetry instead:
	o2 := newObserved(s, 5)
	near2 := mkRecord(map[string]float64{"rate": 0}, Trial{space.Config{"x": 0.1}, 10})
	far2 := mkRecord(map[string]float64{"rate": 10}, Trial{space.Config{"x": 0.9}, 0})
	if _, err := WarmStart(o2, []Record{near2, far2}, WarmStartOptions{
		SimilarityWeighting: true,
		TargetWorkload:      target,
	}); err != nil {
		t.Fatal(err)
	}
	var farScore float64
	for _, obs := range o2.obs {
		if obs.Config.Float("x") == 0.9 {
			farScore = obs.Value
		}
	}
	// Raw value 0, mean 5: the far sample should be pulled well toward 5.
	if farScore < 2 {
		t.Fatalf("far score = %v, want shrunk toward mean", farScore)
	}
}

func TestWarmStartEmpty(t *testing.T) {
	s := space.MustNew(space.Float("x", 0, 1))
	o := optimizer.NewRandom(s, rand.New(rand.NewSource(6)))
	n, err := WarmStart(o, nil, WarmStartOptions{})
	if err != nil || n != 0 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestWarmStartAllCrashes(t *testing.T) {
	s := space.MustNew(space.Float("x", 0, 1))
	rec := mkRecord(nil, Trial{space.Config{"x": 0.5}, CrashValue})
	o := newObserved(s, 7)
	n, err := WarmStart(o, []Record{rec}, WarmStartOptions{})
	if err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if v := o.best(); math.IsInf(v, 0) {
		t.Fatal("imputed crash score should be finite")
	}
}

func TestWarmStartSpeedsUpTuning(t *testing.T) {
	// End-to-end: warm-started BO-free random search reaches a better best
	// with tiny budgets because the prior best is replayed.
	s := space.MustNew(space.Float("x", 0, 1))
	f := func(c space.Config) float64 { return math.Abs(c.Float("x") - 0.42) }
	prior := mkRecord(map[string]float64{"w": 1},
		Trial{space.Config{"x": 0.43}, f(space.Config{"x": 0.43})},
	)
	warm := newObserved(s, 8)
	if _, err := WarmStart(warm, []Record{prior}, WarmStartOptions{}); err != nil {
		t.Fatal(err)
	}
	cold := optimizer.NewRandom(s, rand.New(rand.NewSource(8)))
	_, _ = trial.Run(trial.NewStudy(warm, nil), &trial.FuncEnv{F: f}, trial.Options{Budget: 3})
	cRep, _ := trial.Run(trial.NewStudy(cold, nil), &trial.FuncEnv{F: f}, trial.Options{Budget: 3})
	// The warm incumbent counts the replayed prior as well as the loop.
	wBest, cBest := warm.best(), cRep.BestValue
	if wBest > cBest {
		t.Fatalf("warm best %v should be <= cold best %v", wBest, cBest)
	}
}

func TestTopConfigs(t *testing.T) {
	recs := []Record{
		mkRecord(nil,
			Trial{space.Config{"x": 0.1}, 3},
			Trial{space.Config{"x": 0.2}, 1},
			Trial{space.Config{"x": 0.9}, CrashValue}, // excluded
		),
		mkRecord(nil,
			Trial{space.Config{"x": 0.3}, 2},
			Trial{space.Config{"x": 0.2}, 1.5}, // duplicate config, worse
		),
	}
	top := TopConfigs(recs, 2)
	if len(top) != 2 {
		t.Fatalf("top = %v", top)
	}
	if top[0].Float("x") != 0.2 || top[1].Float("x") != 0.3 {
		t.Fatalf("order = %v", top)
	}
	// k larger than available: all finite distinct configs.
	all := TopConfigs(recs, 10)
	if len(all) != 3 {
		t.Fatalf("all = %v", all)
	}
	if len(TopConfigs(nil, 3)) != 0 {
		t.Fatal("empty records should return none")
	}
}
