package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"autotune/internal/bo"
	"autotune/internal/core"
	"autotune/internal/gp"
	"autotune/internal/linalg"
	"autotune/internal/optimizer"
	"autotune/internal/server"
	"autotune/internal/space"
	"autotune/internal/stats"
)

// probes.go measures the layers below the server from outside, by timing
// calls into their public functions on inputs derived from the seed. The
// numbers approximate in-program stages until ROADMAP item 1's stage
// clock lands; README.md says which end-to-end metric each should move.

// boDepths are the history depths the bo rows are taken at: three marks
// inside the bo-study budget (dense tier) and one past DenseMax = 512,
// reached by replay, where the sparse tier serves.
var boDepths = []int{64, 128, 192}

const (
	boDeepDepth   = 640 // past DenseMax: the sparse tier
	boCycleWindow = 16  // cycles around each depth; their median is the row
	replayDepth   = 128 // restart's preloaded bo history
	gpDepth       = 512
	gpHyperDepth  = 192 // the deepest boDepths mark: FitHyper runs on the study's own history
)

// perLayer are the layer metrics, in BENCHMARK.json's order. Every
// traced run reports every one; a layer that does no work on a workload
// reports 0 for its span rows.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{Name: "server.suggest_handler_us", Unit: "us", Better: "lower"},
		{Name: "server.observe_handler_us", Unit: "us", Better: "lower"},
		{Name: "server.self_us_per_suggest", Unit: "us", Better: "lower"},
		{Name: "server.self_us_per_observe", Unit: "us", Better: "lower"},
		{Name: "server.net_us_per_req", Unit: "us", Better: "lower"},
		{Name: "server.allocs_per_suggest", Unit: "count", Better: "lower"},
		{Name: "server.allocs_per_observe", Unit: "count", Better: "lower"},
		{Name: "server.resp_bytes_per_suggest", Unit: "B", Better: "lower"},
		{Name: "server.shed_429", Unit: "count", Better: "lower"},
		{Name: "server.deadlines", Unit: "count", Better: "lower"},
		{Name: "server.panics", Unit: "count", Better: "lower"},
		{Name: "server.duplicates", Unit: "count", Better: "lower"},
		{Name: "server.recover_ms", Unit: "ms", Better: "lower"},
		{Name: "studystore.append_us_per_batch", Unit: "us", Better: "lower"},
		{Name: "studystore.fs_write_us_per_batch", Unit: "us", Better: "lower"},
		{Name: "studystore.fs_fsync_us_per_batch", Unit: "us", Better: "lower"},
		{Name: "studystore.self_us_per_batch", Unit: "us", Better: "lower"},
		{Name: "studystore.fsyncs_per_observe", Unit: "count", Better: "lower"},
		{Name: "studystore.group_mean", Unit: "count", Better: "higher"},
		{Name: "studystore.group_max", Unit: "count", Better: "higher"},
		{Name: "studystore.framed_bytes_per_record", Unit: "B", Better: "lower"},
		{Name: "studystore.open_ms", Unit: "ms", Better: "lower"},
		{Name: "studystore.replay_records_per_s", Unit: "1/s", Better: "higher"},
		{Name: "studystore.segments", Unit: "count", Better: "lower"},
		{Name: "studystore.torn_tail_bytes", Unit: "B", Better: "lower"},
		{Name: "optimizer.random_suggest_ns_per_config", Unit: "ns", Better: "lower"},
		{Name: "space.sample_ns_per_config", Unit: "ns", Better: "lower"},
	}
	depths := append(append([]int(nil), boDepths...), boDeepDepth)
	for _, row := range []string{"bo.suggest_ms", "bo.observe_ms"} {
		for _, n := range depths {
			defs = append(defs, metricDef{Name: fmt.Sprintf("%s.n%d", row, n), Unit: "ms", Better: "lower"})
		}
	}
	return append(defs,
		metricDef{Name: rowReplay, Unit: "ms", Better: "lower"},
		metricDef{Name: "bo.tier_switches", Unit: "count", Better: "lower"},
		metricDef{Name: "bo.absorbed", Unit: "count", Better: "higher"},
		metricDef{Name: "bo.skipped", Unit: "count", Better: "lower"},
		metricDef{Name: "bo.rebuilds", Unit: "count", Better: "lower"},
		metricDef{Name: "bo.regret_norm", Unit: "ratio", Better: "lower"},
		metricDef{Name: rowGPFit, Unit: "ms", Better: "lower"},
		metricDef{Name: rowGPFitHyper, Unit: "ms", Better: "lower"},
		metricDef{Name: rowGPObserve, Unit: "us", Better: "lower"},
		metricDef{Name: rowGPPredict, Unit: "us", Better: "lower"},
		metricDef{Name: rowSparse, Unit: "us", Better: "lower"},
		metricDef{Name: rowCholesky, Unit: "ms", Better: "lower"},
		metricDef{Name: rowCholUpdate, Unit: "us", Better: "lower"},
		metricDef{Name: rowSolve, Unit: "us", Better: "lower"},
		metricDef{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	)
}()

// Row names carry the full-size depth whatever the run's size.
var (
	rowGPFit       = fmt.Sprintf("gp.fit_ms.n%d", gpDepth)
	rowGPFitHyper  = fmt.Sprintf("gp.fithyper_ms.n%d", gpHyperDepth)
	rowGPObserve   = fmt.Sprintf("gp.observe_us.n%d", gpDepth)
	rowGPPredict   = fmt.Sprintf("gp.predict_us.n%d", gpDepth)
	rowSparse      = fmt.Sprintf("gp.sparse_observe_us.n%d", boDeepDepth)
	rowCholesky    = fmt.Sprintf("linalg.cholesky_ms.n%d", gpDepth)
	rowCholUpdate  = fmt.Sprintf("linalg.cholupdate_us.n%d", gpDepth)
	rowSolve       = fmt.Sprintf("linalg.solve_us.n%d", gpDepth)
	rowReplay      = fmt.Sprintf("bo.replay_ms.n%d", replayDepth)
	rowDeepSuggest = fmt.Sprintf("bo.suggest_ms.n%d", boDeepDepth)
	rowDeepObserve = fmt.Sprintf("bo.observe_ms.n%d", boDeepDepth)
)

func since(t0 time.Time, unit time.Duration) float64 {
	return float64(time.Since(t0)) / float64(unit)
}

// optimizerProbes times what a random study's suggest costs below the
// server: core.NewOptimizer("random") -> SuggestN(64), and Space.Sample.
func optimizerProbes(res *result, p *plan) {
	sp, err := spaceOf(serviceSpace())
	if err != nil {
		panic(err) // the literal service space is valid
	}
	const rounds, batch = 256, 64
	opt, err := core.NewOptimizer("random", sp, rand.New(rand.NewSource(p.seed)))
	if err != nil {
		panic(err) // "random" is in the registry
	}
	per := make([]float64, rounds)
	for i := range per {
		t0 := time.Now()
		if _, err := suggestN(opt, batch); err != nil {
			panic(err) // random search never exhausts
		}
		per[i] = since(t0, time.Nanosecond) / batch
	}
	res.setSamples("optimizer.random_suggest_ns_per_config", stats.Median(per), rounds)
	rng := rand.New(rand.NewSource(p.seed))
	for i := range per {
		t0 := time.Now()
		for k := 0; k < batch; k++ {
			sinkConfig = sp.Sample(rng)
		}
		per[i] = since(t0, time.Nanosecond) / batch
	}
	res.setSamples("space.sample_ns_per_config", stats.Median(per), rounds)
}

// sinkConfig keeps the sampling loop's result alive.
var sinkConfig space.Config

// localBOStudy runs s for budget trials against a bo optimizer in this
// process, timing every Suggest and Observe call: what the traced
// bo-study pass's shadow does, without a server beside it.
func localBOStudy(s study, budget int) (cycles []cycle, best float64, opt optimizer.Optimizer, err error) {
	if opt, err = core.NewOptimizer(s.Spec.Optimizer, s.sp, rand.New(rand.NewSource(s.Spec.Seed))); err != nil {
		return nil, 0, nil, err
	}
	for t := 0; t < budget; t++ {
		t0 := time.Now()
		cfg, err := opt.Suggest()
		c := cycle{suggest: time.Since(t0)}
		if err != nil {
			return nil, 0, nil, err
		}
		v := s.eval(cfg, int64(t))
		if t == 0 || v < best {
			best = v
		}
		t0 = time.Now()
		err = opt.Observe(cfg, v)
		c.observe = time.Since(t0)
		if err != nil {
			return nil, 0, nil, err
		}
		cycles = append(cycles, c)
	}
	return cycles, best, opt, nil
}

// around returns the boCycleWindow cycles centred on depth, or nil when
// the study did not reach that deep (a -quick run).
func around(cycles []cycle, depth int) []cycle {
	lo, hi := depth-boCycleWindow/2, depth+boCycleWindow/2
	if lo < 0 || hi > len(cycles) {
		return nil
	}
	return cycles[lo:hi]
}

// medianCycle reduces cycles to their median suggest and observe time
// in ms (0 for none).
func medianCycle(cycles []cycle) (suggestMS, observeMS float64) {
	var sg, ob []float64
	for _, c := range cycles {
		sg = append(sg, float64(c.suggest)/float64(time.Millisecond))
		ob = append(ob, float64(c.observe)/float64(time.Millisecond))
	}
	return medianOr0(sg), medianOr0(ob)
}

// boProbes fills the bo rows. On bo-study the cycles are the traced
// pass's shadow optimizer's, fed the study's own history in lockstep with
// the server; on the other workloads, where no bo study runs, the same
// Hartmann6 study runs here without a server.
//
// It returns the Hartmann6 study's history, which gpProbes fits.
func boProbes(res *result, p *plan, traced passResult) ([]optimizer.Observation, error) {
	h6, err := hartmann6Study()
	if err != nil {
		return nil, err
	}
	cycles, best, opt := traced.boCycles, traced.best, traced.boShadow
	if p.workload != wlBO {
		if cycles, best, opt, err = localBOStudy(h6, p.sz.BOBudget); err != nil {
			return nil, err
		}
	}
	studyHistory := opt.(*bo.BO).History()
	for _, n := range boDepths {
		window := around(cycles, n)
		sg, ob := medianCycle(window)
		res.setSamples(fmt.Sprintf("bo.suggest_ms.n%d", n), sg, len(window))
		res.setSamples(fmt.Sprintf("bo.observe_ms.n%d", n), ob, len(window))
	}
	res.set("bo.regret_norm", h6.regretNorm(best))

	// Past DenseMax: a fresh optimizer replays a seeded history of
	// boDeepDepth observations (what recovery does), then runs cycles.
	deep, err := core.NewOptimizer("bo", h6.sp, rand.New(rand.NewSource(h6.Spec.Seed)))
	if err != nil {
		return nil, err
	}
	depth, window := boDeepDepth, boCycleWindow
	if p.sz.Quick {
		depth, window = 48, 4 // a smoke test of the code path, not of the sparse tier
	}
	feed := func(opt optimizer.Optimizer, obs []server.Observation) error {
		for _, o := range obs {
			if err := opt.Observe(space.Config(o.Config), o.Value); err != nil {
				return err
			}
		}
		return nil
	}
	history := preload(h6, depth)
	if err := feed(deep, history); err != nil {
		return nil, err
	}
	var deepCycles []cycle
	for t := 0; t < window; t++ {
		t0 := time.Now()
		cfg, err := deep.Suggest()
		c := cycle{suggest: time.Since(t0)}
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		err = deep.Observe(cfg, h6.eval(cfg, int64(depth+t)))
		c.observe = time.Since(t0)
		if err != nil {
			return nil, err
		}
		deepCycles = append(deepCycles, c)
	}
	sg, ob := medianCycle(deepCycles)
	res.setSamples(rowDeepSuggest, sg, len(deepCycles))
	res.setSamples(rowDeepObserve, ob, len(deepCycles))
	st := deep.(*bo.BO).Stats()
	res.set("bo.tier_switches", float64(st.TierSwitches))
	res.set("bo.absorbed", float64(st.Sparse.Absorbed))
	res.set("bo.skipped", float64(st.Sparse.Skipped))
	res.set("bo.rebuilds", float64(st.Sparse.Rebuilds))

	// What a recovered bo study costs before it answers: replaying the
	// preloaded history into a fresh optimizer plus the first Suggest,
	// which builds the model. (Observe only records; the surrogate is
	// fitted lazily, so the first suggest is where recovery pays.)
	const replays = 3
	var ms []float64
	for i := 0; i < replays; i++ {
		opt, err := core.NewOptimizer("bo", h6.sp, rand.New(rand.NewSource(h6.Spec.Seed)))
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := feed(opt, history[:min(replayDepth, len(history))]); err != nil {
			return nil, err
		}
		if _, err := opt.Suggest(); err != nil {
			return nil, err
		}
		ms = append(ms, since(t0, time.Millisecond))
	}
	res.setSamples(rowReplay, stats.Median(ms), replays)
	return studyHistory, nil
}

// gpProbes times gp and linalg directly, on inputs encoded the way bo
// encodes them. Fit, Observe, Predict and the linalg kernels cost the
// same whatever the data, so they run at depth 512 on a seeded design of
// Hartmann6 points. FitHyper's cost depends on the data through how
// long its Nelder-Mead searches take to converge, so it runs on
// studyHistory, the Hartmann6 bo study's own observations.
func gpProbes(res *result, studyHistory []optimizer.Observation, quick bool) error {
	h6, err := hartmann6Study()
	if err != nil {
		return err
	}
	gpDepth, gpHyperDepth, boDeepDepth := gpDepth, gpHyperDepth, boDeepDepth
	if quick {
		// A smoke test of the code path under the full-size names.
		gpDepth, gpHyperDepth, boDeepDepth = 48, 16, 64
	}
	n := boDeepDepth + boCycleWindow
	xs, ys := make([][]float64, n), make([]float64, n)
	for i, o := range preload(h6, n) {
		xs[i], ys[i] = h6.sp.EncodeOneHot(space.Config(o.Config)), o.Value
	}
	// bo normalizes targets before fitting; the probe standardizes them
	// the plain way so the kernel's unit variance fits.
	mean, sd := stats.Mean(ys), stats.StdDev(ys)
	for i := range ys {
		ys[i] = (ys[i] - mean) / sd
	}
	kernel := func() gp.Kernel { return gp.Scale(1, gp.NewMatern(2.5, 0.2)) }
	const noise = 1e-6
	medianOf := func(reps int, unit time.Duration, f func() error) (float64, error) {
		out := make([]float64, reps)
		for i := range out {
			t0 := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			out[i] = since(t0, unit)
		}
		return stats.Median(out), nil
	}

	g := gp.New(kernel(), noise)
	g.SetWorkers(1)
	v, err := medianOf(3, time.Millisecond, func() error { return g.Fit(xs[:gpDepth], ys[:gpDepth]) })
	if err != nil {
		return fmt.Errorf("gp.Fit: %w", err)
	}
	res.setSamples(rowGPFit, v, 3)

	next := 0
	v, err = medianOf(64, time.Microsecond, func() error {
		_, _, err := g.Predict(xs[gpDepth+next%boCycleWindow])
		next++
		return err
	})
	if err != nil {
		return fmt.Errorf("gp.Predict: %w", err)
	}
	res.setSamples(rowGPPredict, v, 64)

	next = gpDepth
	v, err = medianOf(boCycleWindow, time.Microsecond, func() error {
		err := g.Observe(xs[next], ys[next])
		next++
		return err
	})
	if err != nil {
		return fmt.Errorf("gp.Observe: %w", err)
	}
	res.setSamples(rowGPObserve, v, boCycleWindow)

	// A fresh model per repetition, so every search starts from the same
	// point. The starting noise is 1e-5, not bo's default 1e-6: FitHyper
	// rejects log-hyperparameters below -12 and ln(1e-6) = -13.8, so from
	// the default it returns at once unless a random restart lands in
	// range (which is why a study's early refits cost nothing and, once
	// one has moved the noise to 6e-6, the later ones run their course).
	// The probe times the full course.
	const hyperNoise = 1e-5
	if len(studyHistory) < gpHyperDepth {
		return fmt.Errorf("the bo study's history has %d observations, FitHyper needs %d", len(studyHistory), gpHyperDepth)
	}
	hx, hy := make([][]float64, gpHyperDepth), make([]float64, gpHyperDepth)
	for i, o := range studyHistory[:gpHyperDepth] {
		hx[i], hy[i] = h6.sp.EncodeOneHot(o.Config), o.Value
	}
	rng := rand.New(rand.NewSource(boSeed))
	v, err = medianOf(3, time.Millisecond, func() error {
		hyper := gp.New(kernel(), hyperNoise)
		hyper.SetWorkers(1)
		return hyper.FitHyper(hx, hy, 2, rng)
	})
	if err != nil {
		return fmt.Errorf("gp.FitHyper: %w", err)
	}
	res.setSamples(rowGPFitHyper, v, 3)

	sparse := gp.NewSparse(kernel(), noise, 0, boSeed)
	sparse.SetWorkers(1)
	if err := sparse.Fit(xs[:boDeepDepth], ys[:boDeepDepth]); err != nil {
		return fmt.Errorf("gp.SparseGP.Fit: %w", err)
	}
	next = boDeepDepth
	v, err = medianOf(boCycleWindow, time.Microsecond, func() error {
		err := sparse.Observe(xs[next], ys[next])
		next++
		return err
	})
	if err != nil {
		return fmt.Errorf("gp.SparseGP.Observe: %w", err)
	}
	res.setSamples(rowSparse, v, boCycleWindow)

	// linalg on the gram matrix of that history.
	k := kernel()
	gram := linalg.NewMatrix(gpDepth, gpDepth)
	for i := 0; i < gpDepth; i++ {
		for j := 0; j <= i; j++ {
			kij := k.Eval(xs[i], xs[j])
			gram.Set(i, j, kij)
			gram.Set(j, i, kij)
		}
		gram.Add(i, i, noise+1e-8)
	}
	var l *linalg.Matrix
	v, err = medianOf(3, time.Millisecond, func() error {
		var err error
		l, err = linalg.Cholesky(gram)
		return err
	})
	if err != nil {
		return fmt.Errorf("linalg.Cholesky: %w", err)
	}
	res.setSamples(rowCholesky, v, 3)

	row := make([]float64, gpDepth)
	for i := range row {
		row[i] = k.Eval(xs[gpDepth], xs[i])
	}
	diag := k.Eval(xs[gpDepth], xs[gpDepth]) + noise + 1e-8
	v, err = medianOf(8, time.Microsecond, func() error {
		_, err := linalg.CholUpdateRow(l, row, diag)
		return err
	})
	if err != nil {
		return fmt.Errorf("linalg.CholUpdateRow: %w", err)
	}
	res.setSamples(rowCholUpdate, v, 8)

	v, err = medianOf(16, time.Microsecond, func() error {
		x, err := linalg.CholeskySolve(l, ys[:gpDepth])
		if err == nil && math.IsNaN(x[0]) {
			err = fmt.Errorf("solution is NaN")
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("linalg.CholeskySolve: %w", err)
	}
	res.setSamples(rowSolve, v, 16)
	return nil
}
