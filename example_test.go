package autotune_test

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"os"

	"autotune"
)

// ExampleMinimize tunes a 2-knob quadratic with Bayesian optimization.
func ExampleMinimize() {
	sp := autotune.MustSpace(
		autotune.Float("cache_mb", 64, 4096),
		autotune.Int("threads", 1, 32),
	)
	objective := func(c autotune.Config) float64 {
		cache := c.Float("cache_mb")
		threads := float64(c.Int("threads"))
		return math.Pow(math.Log2(cache/1024), 2) + math.Pow((threads-8)/8, 2)
	}
	opt, err := autotune.NewOptimizer("bo", sp, 7)
	if err != nil {
		panic(err)
	}
	_, val, err := autotune.Minimize(opt, objective, 40)
	if err != nil {
		panic(err)
	}
	fmt.Println("found a near-optimal config:", val < 0.05)
	// Output:
	// found a near-optimal config: true
}

// ExampleTune journals a tuning run into a study store, then resumes it
// the way a restarted process would: open the store once, replay the
// study's records into a fresh Study, and tune on to the budget. Replayed
// trials are never re-run, and their configs come back typed by the space.
func ExampleTune() {
	dir, err := os.MkdirTemp("", "autotune-resume")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	sp := autotune.MustSpace(
		autotune.Float("cache_mb", 64, 4096),
		autotune.Int("threads", 1, 32),
	)
	runs := 0
	env := &autotune.FuncEnv{Sp: sp, F: func(c autotune.Config) float64 {
		runs++
		return math.Pow(math.Log2(c.Float("cache_mb")/1024), 2) + math.Pow(float64(c.Int("threads")-8)/8, 2)
	}}
	tune := func(seed int64, budget int) autotune.Report {
		sj, err := autotune.OpenStudyJournal(dir, "db")
		if err != nil {
			panic(err)
		}
		defer sj.Close()
		history, err := sj.Records(sp)
		if err != nil {
			panic(err)
		}
		opt, err := autotune.NewOptimizer("random", sp, seed)
		if err != nil {
			panic(err)
		}
		s := autotune.NewStudy(opt, sj)
		if err := s.Replay(history); err != nil {
			panic(err)
		}
		rep, err := autotune.Tune(s, env, autotune.TuneOptions{Budget: budget})
		if err != nil {
			panic(err)
		}
		return rep
	}
	tune(1, 10) // the first process stops after 10 trials
	rep := tune(2, 25)
	_, typed := rep.BestConfig["threads"].(int64)
	fmt.Println("replayed:", rep.Resumed, "ran:", runs, "trials:", len(rep.Trials), "typed:", typed)
	// Output:
	// replayed: 10 ran: 25 trials: 25 typed: true
}

// ExampleNewServer runs the tuning service in-process: the daemon is a
// plain http.Handler, so the example mounts it on an httptest server and
// drives it through the typed client exactly as a remote tuner would.
// Every acked observation is fsynced into the study store before the
// response, so a kill -9 here would lose nothing.
func ExampleNewServer() {
	dir, err := os.MkdirTemp("", "autotune-service")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	srv, err := autotune.NewServer(autotune.ServerOptions{StoreDir: dir})
	if err != nil {
		panic(err)
	}
	defer srv.Close() // drains in-flight work and seals the study log
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ctx := context.Background()
	c := autotune.NewServerClient(ts.URL)
	if _, err := c.CreateStudy(ctx, "cache-latency", autotune.StudySpec{
		Optimizer: "random",
		Seed:      7,
		Space: []autotune.ParamSpec{
			{Name: "cache_mb", Kind: "int", Min: 64, Max: 4096, Log: true},
			{Name: "policy", Kind: "categorical", Values: []string{"lru", "arc", "clock"}},
		},
	}); err != nil {
		panic(err)
	}
	trials, err := c.Suggest(ctx, "cache-latency", 3)
	if err != nil {
		panic(err)
	}
	obs := make([]autotune.ServiceObservation, len(trials))
	for i, tr := range trials {
		// A real tuner benchmarks tr.Config here; this stand-in objective
		// just prefers later trials.
		obs[i] = autotune.ServiceObservation{Trial: tr.Trial, Config: tr.Config, Value: float64(3 - i)}
	}
	if _, err := c.Observe(ctx, "cache-latency", obs...); err != nil {
		panic(err)
	}
	best, err := c.Best(ctx, "cache-latency")
	if err != nil {
		panic(err)
	}
	fmt.Printf("best trial %d of %d observed, value %.0f\n", best.Trial, best.Observed, best.Value)
	// Output:
	// best trial 2 of 3 observed, value 1
}

// ExampleNewOptimizer shows the optimizer registry.
func ExampleNewOptimizer() {
	for _, name := range autotune.OptimizerNames() {
		fmt.Println(name)
	}
	// Output:
	// anneal
	// bo
	// bo-lcb
	// bo-pi
	// cmaes
	// coordinate
	// genetic
	// grid
	// pso
	// random
	// smac
}
