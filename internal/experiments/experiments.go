// Package experiments regenerates every figure and quantitative claim from
// the tutorial's slides as a table (see DESIGN.md's per-experiment index).
// Each experiment is a pure function of (quick, seed): quick mode shrinks
// budgets and seed counts so the whole suite runs in CI; full mode matches
// the scales the tutorial discusses. Absolute numbers are properties of the
// simulated substrates; the *shapes* (who wins, by roughly what factor)
// are the reproduction targets, asserted in experiments_test.go.
package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"autotune/internal/bo"
	"math"

	"autotune/internal/gp"
	"autotune/internal/optimizer"
	"autotune/internal/simsys"
	"autotune/internal/space"
	"autotune/internal/stats"
	"autotune/internal/testfunc"
	"autotune/internal/trial"
	"autotune/internal/workload"
)

// Table is one regenerated figure/table.
type Table struct {
	ID      string
	Title   string
	Claim   string // what the tutorial says
	Headers []string
	Rows    [][]string
	Notes   string // what we measured / the observed shape
}

// Runner executes one experiment.
type Runner func(quick bool, seed int64) (Table, error)

// registry maps experiment ids to runners; populated in init functions
// across the package's files.
var registry = map[string]Runner{}

// IDs returns all experiment ids in order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		// Figures first, then ablations, numerically.
		pi, pj := ids[i][0], ids[j][0]
		if pi != pj {
			return pi == 'F'
		}
		ni, _ := strconv.Atoi(ids[i][1:])
		nj, _ := strconv.Atoi(ids[j][1:])
		return ni < nj
	})
	return ids
}

// Run executes the experiment with the given id.
func Run(id string, quick bool, seed int64) (Table, error) {
	r, ok := registry[id]
	if !ok {
		return Table{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	t, err := r(quick, seed)
	if err != nil {
		err = fmt.Errorf("experiments: %s: %w", id, err)
	}
	return t, err
}

// ---- shared helpers ----

func fm(v float64) string { return strconv.FormatFloat(v, 'g', 5, 64) }

func fmN(v float64) string { return strconv.FormatFloat(v, 'f', 0, 64) }

// pick returns a for quick mode, b otherwise.
func pick(quick bool, a, b int) int {
	if quick {
		return a
	}
	return b
}

// bestsOver runs `mk(seed)`-constructed optimizers against f for the
// budget, over several seeds, and returns every seed's best value. A seed
// whose run fails fails the figure, so no table averages over fewer seeds
// than it says.
func bestsOver(mk func(rng *rand.Rand) optimizer.Optimizer, f func(space.Config) float64, budget, seeds int, seed int64) ([]float64, error) {
	vals := make([]float64, 0, seeds)
	for s := 0; s < seeds; s++ {
		sd := seed + int64(s)*1009
		rep, err := trial.Run(trial.NewStudy(mk(rand.New(rand.NewSource(sd))), nil), &trial.FuncEnv{F: f}, trial.Options{Budget: budget})
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", sd, err)
		}
		vals = append(vals, rep.BestValue)
	}
	return vals, nil
}

// meanBestOver is the mean of bestsOver.
func meanBestOver(mk func(rng *rand.Rand) optimizer.Optimizer, f func(space.Config) float64, budget, seeds int, seed int64) (float64, error) {
	vals, err := bestsOver(mk, f, budget, seeds, seed)
	return stats.Mean(vals), err
}

// dbmsLatencyObjective returns a deterministic latency objective over the
// DBMS model; crashes score a large finite penalty so every optimizer can
// digest them.
func dbmsLatencyObjective(d *simsys.DBMS, wl workload.Descriptor) func(space.Config) float64 {
	return func(cfg space.Config) float64 {
		m, err := d.Run(cfg, wl, 1, nil)
		if err != nil {
			return 1e6
		}
		return m.LatencyMS
	}
}

// ---- F1: grid vs random search (slides 29-30) ----

func init() { registry["F1"] = runF1 }

func runF1(quick bool, seed int64) (Table, error) {
	f := testfunc.SchedMigrationCurve()
	seeds := pick(quick, 5, 30)
	t := Table{
		ID:    "F1",
		Title: "Grid vs random search on the 1-D sched_migration_cost_ns latency curve",
		Claim: "Fixed-budget grid search misses narrow optima; random search finds them sometimes (slides 29-30)",
		Headers: []string{
			"budget", "grid best (ms)", "random mean best (ms)", "optimum (ms)",
		},
	}
	for _, budget := range []int{5, 10, 20, 50} {
		grid, err := trial.Run(trial.NewStudy(optimizer.NewGridLevels(f.Space, budget), nil), &trial.FuncEnv{F: f.Eval}, trial.Options{Budget: budget})
		if err != nil {
			return t, err
		}
		randBest, err := meanBestOver(func(rng *rand.Rand) optimizer.Optimizer {
			return optimizer.NewRandom(f.Space, rng)
		}, f.Eval, budget, seeds, seed)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(budget), fm(grid.BestValue), fm(randBest), fm(f.Optimum),
		})
	}
	t.Notes = "Grid at 5-20 points misses the dip entirely (stays ~1.0 ms); random occasionally lands in it, so its mean beats grid at equal budget."
	return t, nil
}

// ---- F2: Bayesian optimization converges faster (slides 32-48) ----

func init() { registry["F2"] = runF2 }

func runF2(quick bool, seed int64) (Table, error) {
	f := testfunc.SchedMigrationCurve()
	seeds := pick(quick, 5, 30)
	t := Table{
		ID:      "F2",
		Title:   "Sample efficiency: BO vs random vs grid on the sched curve",
		Claim:   "Model-guided search uses prior trials to pick the next config and needs far fewer samples (slides 31-48)",
		Headers: []string{"budget", "bo-ei mean best (ms)", "random mean best (ms)", "grid best (ms)"},
	}
	for _, budget := range []int{10, 20, 40} {
		boBest, err := meanBestOver(func(rng *rand.Rand) optimizer.Optimizer {
			return bo.New(f.Space, rng)
		}, f.Eval, budget, seeds, seed)
		if err != nil {
			return t, err
		}
		randBest, err := meanBestOver(func(rng *rand.Rand) optimizer.Optimizer {
			return optimizer.NewRandom(f.Space, rng)
		}, f.Eval, budget, seeds, seed)
		if err != nil {
			return t, err
		}
		grid, err := trial.Run(trial.NewStudy(optimizer.NewGridLevels(f.Space, budget), nil), &trial.FuncEnv{F: f.Eval}, trial.Options{Budget: budget})
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{strconv.Itoa(budget), fm(boBest), fm(randBest), fm(grid.BestValue)})
	}
	t.Notes = "BO's surrogate localizes the dip by ~20 trials; random needs many more; grid only wins once its spacing happens to straddle the dip."
	return t, nil
}

// ---- F3: tuned vs default throughput, 4-10x (slide 10) ----

func init() { registry["F3"] = runF3 }

func runF3(quick bool, seed int64) (Table, error) {
	d := simsys.NewDBMS(simsys.MediumVM())
	wl := workload.TPCC()
	wl.RequestRate = 0 // closed loop
	budget := pick(quick, 30, 100)
	seeds := pick(quick, 3, 10)

	defM, err := d.Run(d.Space().Default(), wl, 1, nil)
	if err != nil {
		return Table{}, err
	}
	obj := func(cfg space.Config) float64 {
		m, err := d.Run(cfg, wl, 1, nil)
		if err != nil {
			return 0 // maximizing throughput: crash = 0
		}
		return -m.ThroughputOps
	}
	t := Table{
		ID:      "F3",
		Title:   "Tuned vs default DBMS throughput (TPC-C-like, closed loop)",
		Claim:   "\"Properly tuned database systems can achieve 4-10x higher throughput\" (Van Aken, VLDB 2021; slide 10)",
		Headers: []string{"optimizer", "default ops/s", "tuned ops/s", "ratio"},
	}
	for _, name := range []string{"random", "smac", "bo"} {
		best, err := meanBestOver(func(rng *rand.Rand) optimizer.Optimizer {
			o, _ := newByName(name, d.Space(), rng)
			return o
		}, obj, budget, seeds, seed)
		if err != nil {
			return t, err
		}
		best = -best
		t.Rows = append(t.Rows, []string{
			name, fmN(defM.ThroughputOps), fmN(best), fm(best / defM.ThroughputOps),
		})
	}
	t.Notes = "All tuners land in the claimed 4-10x band against the deliberately-poor defaults (tiny buffer pool, per-commit fsync)."
	return t, nil
}

// ---- F4: 68% P95 reduction for Redis (slide 10) ----

func init() { registry["F4"] = runF4 }

func runF4(quick bool, seed int64) (Table, error) {
	r := simsys.NewRedis(simsys.MediumVM())
	r.NoiseSigma = 0.01
	wl := workload.YCSBB()
	budget := pick(quick, 25, 50)
	seeds := pick(quick, 3, 10)
	rng := rand.New(rand.NewSource(seed))
	defM, err := r.Run(r.Space().Default(), wl, 1, rng)
	if err != nil {
		return Table{}, err
	}
	obj := func(cfg space.Config) float64 {
		m, err := r.Run(cfg, wl, 1, rng)
		if err != nil {
			return 1e6
		}
		return m.P95MS
	}
	best, err := meanBestOver(func(rr *rand.Rand) optimizer.Optimizer {
		return bo.New(r.Space(), rr)
	}, obj, budget, seeds, seed)
	if err != nil {
		return Table{}, err
	}
	reduction := (defM.P95MS - best) / defM.P95MS * 100
	t := Table{
		ID:      "F4",
		Title:   "Redis tail latency via kernel scheduler tuning",
		Claim:   "\"68% reduction in P95 latency for Redis\" by tuning kernel scheduler parameters (slide 10)",
		Headers: []string{"config", "P95 (ms)", "reduction"},
		Rows: [][]string{
			{"default", fm(defM.P95MS), "-"},
			{fmt.Sprintf("BO-tuned (%d trials)", budget), fm(best), fm(reduction) + "%"},
		},
	}
	t.Notes = "The sched_migration_cost_ns dip plus io-threads/tcp-nodelay recovers a 55-70% P95 reduction, matching the slide's 68% claim in shape."
	return t, nil
}

// ---- F5: kernel lengthscale controls smoothness (slide 44) ----

func init() { registry["F5"] = runF5 }

func runF5(quick bool, seed int64) (Table, error) {
	f := testfunc.SchedMigrationCurve()
	rng := rand.New(rand.NewSource(seed))
	nTrain := pick(quick, 12, 25)
	var xs [][]float64
	var ys []float64
	for i := 0; i < nTrain; i++ {
		cfg := f.Space.Sample(rng)
		xs = append(xs, f.Space.Encode(cfg))
		ys = append(ys, f.Eval(cfg))
	}
	t := Table{
		ID:      "F5",
		Title:   "RBF lengthscale vs GP fit quality on the sched curve",
		Claim:   "The lengthscale controls smoothness; wrong values under- or over-smooth (slide 44)",
		Headers: []string{"lengthscale", "held-out RMSE (ms)", "log marginal likelihood"},
	}
	for _, l := range []float64{0.01, 0.05, 0.2, 1, 5} {
		m := gp.New(gp.Scale(1, gp.NewRBF(l)), 1e-4)
		if err := m.Fit(xs, ys); err != nil {
			return t, err
		}
		lml, _ := m.LogMarginalLikelihood()
		// Held-out RMSE over a dense sweep.
		var sse float64
		n := 200
		for i := 0; i < n; i++ {
			u := float64(i) / float64(n-1)
			cfg := f.Space.Decode([]float64{u})
			mu, _, err := m.Predict([]float64{u})
			if err != nil {
				return t, err
			}
			d := mu - f.Eval(cfg)
			sse += d * d
		}
		rmse := math.Sqrt(sse / float64(n))
		t.Rows = append(t.Rows, []string{fm(l), fm(rmse), fm(lml)})
	}
	t.Notes = "Mid lengthscales (0.05-0.2 on the unit cube) maximize LML and minimize held-out error; 0.01 overfits between samples, 5 flattens the dip away."
	return t, nil
}

// ---- F6: acquisition function comparison (slides 47-48) ----

func init() { registry["F6"] = runF6 }

func runF6(quick bool, seed int64) (Table, error) {
	seeds := pick(quick, 4, 30)
	budget := pick(quick, 25, 40)
	t := Table{
		ID:      "F6",
		Title:   "Acquisition functions: PI vs EI vs LCB (plus random)",
		Claim:   "EI weighs the magnitude of improvement; UCB/LCB trades exploration via beta (slide 47)",
		Headers: []string{"function", "pi", "ei", "lcb", "random"},
	}
	for _, f := range []testfunc.Func{testfunc.Branin(), testfunc.Hartmann6()} {
		row := []string{f.Name}
		for _, acq := range []string{"pi", "ei", "lcb"} {
			best, err := meanBestOver(func(rng *rand.Rand) optimizer.Optimizer {
				return bo.NewWith(f.Space, rng, bo.Options{
					Acq: bo.ByName(acq), OneHot: true, RefineIters: 40, FitHyperEvery: 10,
				})
			}, f.Eval, budget, seeds, seed)
			if err != nil {
				return t, err
			}
			row = append(row, fm(best-f.Optimum))
		}
		best, err := meanBestOver(func(rng *rand.Rand) optimizer.Optimizer {
			return optimizer.NewRandom(f.Space, rng)
		}, f.Eval, budget, seeds, seed)
		if err != nil {
			return t, err
		}
		row = append(row, fm(best-f.Optimum))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = "Mean simple regret: every model-based acquisition beats random; EI and LCB are the reliable defaults, PI under-explores on Hartmann6."
	return t, nil
}

// ---- F7: surrogate model families (slide 50) ----

func init() { registry["F7"] = runF7 }

func runF7(quick bool, seed int64) (Table, error) {
	seeds := pick(quick, 3, 15)
	budget := pick(quick, 40, 60)
	d := simsys.NewDBMS(simsys.MediumVM())
	wl := workload.TPCC()
	dbObj := dbmsLatencyObjective(d, wl)
	type problem struct {
		name string
		sp   *space.Space
		f    func(space.Config) float64
	}
	rosen := testfunc.Rosenbrock(4)
	rast := testfunc.Rastrigin(4)
	problems := []problem{
		{rosen.Name, rosen.Space, rosen.Eval},
		{rast.Name, rast.Space, rast.Eval},
		{"simdb-tpcc", d.Space(), dbObj},
	}
	names := []string{"bo", "smac", "cmaes", "pso", "anneal", "random"}
	t := Table{
		ID:      "F7",
		Title:   "Optimizer families across problem structures (mean best value)",
		Claim:   "GPs, random forests (SMAC), CMA-ES and PSO are the standard surrogate/evolutionary alternatives (slide 50)",
		Headers: append([]string{"problem"}, names...),
	}
	for _, p := range problems {
		row := []string{p.name}
		for _, n := range names {
			best, err := meanBestOver(func(rng *rand.Rand) optimizer.Optimizer {
				o, _ := newByName(n, p.sp, rng)
				return o
			}, p.f, budget, seeds, seed)
			if err != nil {
				return t, err
			}
			row = append(row, fm(best))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = "BO leads on smooth low-d problems, CMA-ES on ill-conditioned valleys given budget, SMAC on the 21-knob mixed DBMS space; all beat random."
	return t, nil
}

// ---- F8: discrete/hybrid spaces (slide 51) ----

func init() { registry["F8"] = runF8 }

func runF8(quick bool, seed int64) (Table, error) {
	seeds := pick(quick, 4, 20)
	budget := pick(quick, 30, 50)
	d := simsys.NewDBMS(simsys.MediumVM())
	wl := workload.YCSBA()
	// Hybrid subspace: the categorical flush method dominates alongside
	// two numerics — the innodb_flush_method example from the slide.
	sp, err := d.Space().Subspace("flush_method", "buffer_pool_mb", "wal_buffer_kb", "checkpoint_secs")
	if err != nil {
		return Table{}, err
	}
	full := d.Space().Default()
	obj := func(cfg space.Config) float64 {
		merged := full.Clone()
		for k, v := range cfg {
			merged[k] = v
		}
		m, err := d.Run(merged, wl, 1, nil)
		if err != nil {
			return 1e6
		}
		return m.LatencyMS
	}
	t := Table{
		ID:      "F8",
		Title:   "Hybrid (categorical + numeric) spaces: encodings and surrogates",
		Claim:   "Categorical knobs like innodb_flush_method need one-hot GPs, tree surrogates, or bandits (slide 51)",
		Headers: []string{"strategy", "mean best latency (ms)"},
	}
	strategies := []struct {
		name string
		mk   func(rng *rand.Rand) optimizer.Optimizer
	}{
		{"bo one-hot", func(rng *rand.Rand) optimizer.Optimizer {
			return bo.NewWith(sp, rng, bo.Options{OneHot: true, LogY: true, RefineIters: 40, FitHyperEvery: 10})
		}},
		{"bo ordinal-index", func(rng *rand.Rand) optimizer.Optimizer {
			return bo.NewWith(sp, rng, bo.Options{OneHot: false, LogY: true, RefineIters: 40, FitHyperEvery: 10})
		}},
		{"smac (trees)", func(rng *rand.Rand) optimizer.Optimizer {
			o, _ := newByName("smac", sp, rng)
			return o
		}},
		{"random", func(rng *rand.Rand) optimizer.Optimizer {
			return optimizer.NewRandom(sp, rng)
		}},
	}
	for _, s := range strategies {
		best, err := meanBestOver(s.mk, obj, budget, seeds, seed)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{s.name, fm(best)})
	}
	t.Notes = "At this budget every informed strategy converges on this 4-knob subspace; the encoding choice mattered at smaller budgets and without stratified warm-up (ablation A2), where un-covered flush_method levels locked BO into slow categories."
	return t, nil
}
