package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"autotune/internal/bo"
	"autotune/internal/core"
	"autotune/internal/mfidelity"
	"autotune/internal/moo"
	"autotune/internal/optimizer"
	"autotune/internal/projection"
	"autotune/internal/simsys"
	"autotune/internal/space"
	"autotune/internal/stats"
	"autotune/internal/transfer"
	"autotune/internal/trial"
	"autotune/internal/workload"
)

// newByName builds an optimizer from the core registry.
func newByName(name string, sp *space.Space, rng *rand.Rand) (optimizer.Optimizer, error) {
	return core.NewOptimizer(name, sp, rng)
}

// ---- F9: parallel optimization (slide 57) ----

func init() { registry["F9"] = runF9 }

func runF9(quick bool, seed int64) (Table, error) {
	d := simsys.NewDBMS(simsys.MediumVM())
	wl := workload.TPCC()
	budget := pick(quick, 24, 48)
	seeds := pick(quick, 3, 10)
	t := Table{
		ID:      "F9",
		Title:   "Synchronous batch parallelism (constant-liar BO)",
		Claim:   "Suggest k configurations at once; batch evaluation cuts wall clock at some quality cost (slide 57)",
		Headers: []string{"batch size", "mean best latency (ms)", "wall clock (s, simulated)", "speedup"},
	}
	var seqWall float64
	for _, k := range []int{1, 4, 8} {
		var bests, walls []float64
		for s := 0; s < seeds; s++ {
			rng := rand.New(rand.NewSource(seed + int64(s)*211))
			env := &trial.SystemEnv{Sys: d, WL: wl, BaseDurationSec: 300}
			o := bo.New(d.Space(), rng)
			rep, err := trial.Run(trial.NewStudy(o, nil), env, trial.Options{Budget: budget, Parallel: k})
			if err != nil {
				return t, err
			}
			bests = append(bests, rep.BestValue)
			walls = append(walls, rep.WallClockSeconds)
		}
		wall := stats.Mean(walls)
		if k == 1 {
			seqWall = wall
		}
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(k), fm(stats.Mean(bests)), fmN(wall), fm(seqWall / wall),
		})
	}
	t.Notes = "Batch-k wall clock shrinks ~k-fold; the constant-liar heuristic keeps batch members diverse so quality degrades only mildly."
	return t, nil
}

// ---- F10: multi-objective Pareto (slide 58) ----

func init() { registry["F10"] = runF10 }

func runF10(quick bool, seed int64) (Table, error) {
	sys := simsys.NewSpark(simsys.MediumVM())
	sys.NoiseSigma = 0
	wl := workload.TPCH(10)
	budget := pick(quick, 60, 120)
	objectives := func(cfg space.Config) []float64 {
		m, err := sys.Run(cfg, wl, 1, nil)
		if err != nil {
			return []float64{1e6, 1e6}
		}
		runtimeSec := m.LatencyMS / 1000
		jobCost := m.CostUSDPerHour * runtimeSec / 3600 // USD for this run
		return []float64{runtimeSec, jobCost}
	}
	ref := [2]float64{200, 0.05}
	t := Table{
		ID:      "F10",
		Title:   "Multi-objective tuning: Spark runtime vs cost Pareto front",
		Claim:   "No single optimum; report the Pareto frontier (e.g. via ParEGO scalarization) (slide 58)",
		Headers: []string{"algorithm", "front size", "hypervolume", "fastest (s)", "cheapest (USD)"},
	}
	algos := []struct {
		name string
		mk   func(rng *rand.Rand) moo.MultiOptimizer
	}{
		{"parego", func(rng *rand.Rand) moo.MultiOptimizer {
			p, _ := moo.NewParEGO(sys.Space(), 2, rng)
			return p
		}},
		{"nsga2", func(rng *rand.Rand) moo.MultiOptimizer {
			n, _ := moo.NewNSGAII(sys.Space(), 2, rng)
			return n
		}},
		{"random", func(rng *rand.Rand) moo.MultiOptimizer {
			r, _ := moo.NewRandomMulti(sys.Space(), 2, rng)
			return r
		}},
	}
	for _, a := range algos {
		rng := rand.New(rand.NewSource(seed))
		m := a.mk(rng)
		if err := moo.RunMulti(m, objectives, budget); err != nil {
			return t, err
		}
		front := m.Front()
		var objs [][]float64
		fastest, cheapest := math.Inf(1), math.Inf(1)
		for _, e := range front {
			objs = append(objs, e.Objectives)
			if e.Objectives[0] < fastest {
				fastest = e.Objectives[0]
			}
			if e.Objectives[1] < cheapest {
				cheapest = e.Objectives[1]
			}
		}
		hv := moo.Hypervolume2D(objs, ref)
		t.Rows = append(t.Rows, []string{
			a.name, strconv.Itoa(len(front)), fm(hv), fm(fastest), fm(cheapest),
		})
	}
	t.Notes = "ParEGO and NSGA-II trace the runtime/cost trade-off (more executors = faster but pricier); random needs far more evaluations for the same hypervolume."
	return t, nil
}

// ---- F11: constraints & structured spaces (slides 60-61) ----

func init() { registry["F11"] = runF11 }

func runF11(quick bool, seed int64) (Table, error) {
	d := simsys.NewDBMS(simsys.SmallVM()) // tight RAM: the cliff is nearby
	wl := workload.TPCC()
	budget := pick(quick, 30, 60)
	seeds := pick(quick, 3, 10)
	t := Table{
		ID:      "F11",
		Title:   "Constrained tuning: declared memory constraint vs learning the crash cliff",
		Claim:   "Encode cross-knob constraints (buffer_pool_chunk <= pool/instances style) instead of crashing into them (slide 60)",
		Headers: []string{"strategy", "mean best latency (ms)", "mean crashed trials"},
	}
	run := func(sp *space.Space) (best, crashes float64, err error) {
		var bests, crs []float64
		for s := 0; s < seeds; s++ {
			rng := rand.New(rand.NewSource(seed + int64(s)*401))
			env := &trial.SystemEnv{Sys: &spaceOverrideSystem{d, sp}, WL: wl}
			o := bo.New(sp, rng)
			rep, err := trial.Run(trial.NewStudy(o, nil), env, trial.Options{Budget: budget})
			if err != nil {
				return 0, 0, fmt.Errorf("seed %d: %w", seed+int64(s)*401, err)
			}
			bests = append(bests, rep.BestValue)
			crs = append(crs, float64(rep.Crashes))
		}
		return stats.Mean(bests), stats.Mean(crs), nil
	}
	unconstrained, crashesU, err := run(d.Space())
	if err != nil {
		return t, err
	}
	constrained, crashesC, err := run(d.Space().WithConstraints(d.MemoryConstraint(wl.Clients)))
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{"unconstrained (learns the cliff)", fm(unconstrained), fm(crashesU)})
	t.Rows = append(t.Rows, []string{"declared constraint (rejection sampling)", fm(constrained), fm(crashesC)})
	t.Notes = "Declaring the memory constraint eliminates crashed trials and spends the budget inside the feasible region; the unconstrained run burns trials crashing."
	return t, nil
}

// spaceOverrideSystem exposes a different (e.g. constrained) space for the
// same underlying system.
type spaceOverrideSystem struct {
	simsys.System
	sp *space.Space
}

func (s *spaceOverrideSystem) Space() *space.Space { return s.sp }

// ---- F12: LlamaTune-style dimensionality reduction (slide 62) ----

func init() { registry["F12"] = runF12 }

func runF12(quick bool, seed int64) (Table, error) {
	d := simsys.NewDBMS(simsys.MediumVM())
	wl := workload.TPCC()
	obj := dbmsLatencyObjective(d, wl)
	budget := pick(quick, 30, 60)
	seeds := pick(quick, 4, 15)
	t := Table{
		ID:      "F12",
		Title:   "LlamaTune: random-projection search space reduction (21 knobs -> 4 latent dims)",
		Claim:   "Random projection cuts evaluations up to 11x and finds up to 21% better configs (slide 62, VLDB 2022)",
		Headers: []string{"strategy", "mean best latency (ms)", "mean trials to beat default by 25%"},
	}
	defLat := obj(d.Space().Default())
	target := defLat * 0.75
	type strat struct {
		name string
		mk   func(rng *rand.Rand) (optimizer.Optimizer, func(space.Config) float64)
	}
	strategies := []strat{
		{"bo full 21-d space", func(rng *rand.Rand) (optimizer.Optimizer, func(space.Config) float64) {
			return bo.New(d.Space(), rng), obj
		}},
		{"bo + HeSBO 4-d", func(rng *rand.Rand) (optimizer.Optimizer, func(space.Config) float64) {
			h, _ := projection.NewHeSBO(d.Space(), 4, rng)
			h.SpecialBias = 0.2
			return bo.New(h.LowSpace(), rng), h.Objective(obj, nil)
		}},
		{"random full space", func(rng *rand.Rand) (optimizer.Optimizer, func(space.Config) float64) {
			return optimizer.NewRandom(d.Space(), rng), obj
		}},
	}
	for _, s := range strategies {
		var bests, hitAt []float64
		for sd := 0; sd < seeds; sd++ {
			rng := rand.New(rand.NewSource(seed + int64(sd)*733))
			o, f := s.mk(rng)
			firstHit := math.NaN()
			count := 0
			wrapped := func(cfg space.Config) float64 {
				v := f(cfg)
				count++
				if v <= target && math.IsNaN(firstHit) {
					firstHit = float64(count)
				}
				return v
			}
			rep, err := trial.Run(trial.NewStudy(o, nil), &trial.FuncEnv{F: wrapped}, trial.Options{Budget: budget})
			if err != nil {
				return t, fmt.Errorf("%s seed %d: %w", s.name, seed+int64(sd)*733, err)
			}
			bests = append(bests, rep.BestValue)
			if math.IsNaN(firstHit) {
				firstHit = float64(budget) * 2 // censored
			}
			hitAt = append(hitAt, firstHit)
		}
		t.Rows = append(t.Rows, []string{s.name, fm(stats.Mean(bests)), fm(stats.Mean(hitAt))})
	}
	t.Notes = "The 4-d latent space reaches the 25%-better-than-default bar in a fraction of the trials the full 21-d space needs — the LlamaTune sample-efficiency shape."
	return t, nil
}

// ---- F13: multi-fidelity (slides 65-66) ----

func init() { registry["F13"] = runF13 }

func runF13(quick bool, seed int64) (Table, error) {
	d := simsys.NewDBMS(simsys.MediumVM())
	d.NoiseSigma = 0.05
	wl := workload.TPCC()
	rng := rand.New(rand.NewSource(seed))
	trueObj := dbmsLatencyObjective(simsys.NewDBMS(simsys.MediumVM()), wl)
	eval := func(cfg space.Config, fid float64) float64 {
		m, err := d.Run(cfg, wl, fid, rng)
		if err != nil {
			return 1e6
		}
		return m.LatencyMS
	}
	n := pick(quick, 27, 81)
	t := Table{
		ID:      "F13",
		Title:   "Multi-fidelity: successive halving / Hyperband vs full-fidelity",
		Claim:   "Run cheaper tests (TPC-H SF1, 1-minute TPC-C) to screen configs; beware transferability (slides 65-66)",
		Headers: []string{"strategy", "true latency of pick (ms)", "total cost (benchmark-units)", "evaluations"},
	}
	sh, err := mfidelity.SuccessiveHalving(d.Space(), eval, nil, n, 1.0/9, 3, rng)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{"successive halving", fm(trueObj(sh.Best)), fm(sh.TotalCost), strconv.Itoa(sh.Evaluations)})
	hb, err := mfidelity.Hyperband(d.Space(), eval, nil, 1.0/9, 3, rng)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{"hyperband", fm(trueObj(hb.Best)), fm(hb.TotalCost), strconv.Itoa(hb.Evaluations)})
	fx, err := mfidelity.FixedFidelity(d.Space(), eval, nil, int(math.Ceil(sh.TotalCost)), rng)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{"full fidelity (cost-matched)", fm(trueObj(fx.Best)), fm(fx.TotalCost), strconv.Itoa(fx.Evaluations)})
	t.Notes = "At matched cost SH/Hyperband screen several times more configurations; the low-fidelity bias (shrunken working set flatters small buffer pools) is visible but survivable because the final rung re-measures at full fidelity."
	return t, nil
}

// ---- F14: knowledge transfer / warm start (slide 67) ----

func init() { registry["F14"] = runF14 }

func runF14(quick bool, seed int64) (Table, error) {
	d := simsys.NewDBMS(simsys.MediumVM())
	src := workload.YCSBB()
	dst := workload.Interpolate(workload.YCSBB(), workload.YCSBA(), 0.25) // similar-ish
	far := workload.TPCH(1)                                               // dissimilar
	srcObj := dbmsLatencyObjective(d, src)
	dstObj := dbmsLatencyObjective(d, dst)
	budget := pick(quick, 10, 20)
	priorBudget := pick(quick, 30, 60)
	seeds := pick(quick, 3, 10)

	t := Table{
		ID:      "F14",
		Title:   "Knowledge transfer: warm-starting from a similar workload's trials",
		Claim:   "Reuse good samples from similar workloads, reuse bad/crashed samples everywhere (slide 67)",
		Headers: []string{"strategy", fmt.Sprintf("mean best after %d trials (ms)", budget)},
	}
	var cold, warm, warmFar []float64
	for s := 0; s < seeds; s++ {
		rng := rand.New(rand.NewSource(seed + int64(s)*997))
		// Build the prior store by tuning the source workload.
		prior := bo.New(d.Space(), rng)
		if _, err := trial.Run(trial.NewStudy(prior, nil), &trial.FuncEnv{F: srcObj}, trial.Options{Budget: priorBudget}); err != nil {
			return t, err
		}
		var rec transfer.Record
		rec.Workload = src.Features()
		for _, obs := range prior.History() {
			rec.Trials = append(rec.Trials, transfer.Trial{Config: obs.Config, Value: obs.Value})
		}
		// trackMin wraps the destination objective so that every
		// destination evaluation counts toward the reported best, including
		// the re-evaluated top configs that are observed outside the loop.
		trackMin := func() (func(space.Config) float64, *float64) {
			best := math.Inf(1)
			return func(cfg space.Config) float64 {
				v := dstObj(cfg)
				if v < best {
					best = v
				}
				return v
			}, &best
		}
		// Cold start on the destination.
		coldOpt := bo.New(d.Space(), rand.New(rand.NewSource(seed+int64(s)*997+1)))
		coldF, coldBest := trackMin()
		if _, err := trial.Run(trial.NewStudy(coldOpt, nil), &trial.FuncEnv{F: coldF}, trial.Options{Budget: budget}); err != nil {
			return t, err
		}
		cold = append(cold, *coldBest)
		// Warm start from the similar workload.
		warmOpt := bo.New(d.Space(), rand.New(rand.NewSource(seed+int64(s)*997+2)))
		if _, err := transfer.WarmStart(warmOpt, []transfer.Record{rec}, transfer.WarmStartOptions{
			MaxTrials: 20, SimilarityWeighting: true, TargetWorkload: dst.Features(),
		}); err != nil {
			return t, err
		}
		warmF, warmBest := trackMin()
		// Re-evaluate the prior's best configs on the new workload first
		// (their replayed scores describe the old workload), then let the
		// optimizer spend the rest of the budget.
		top := transfer.TopConfigs([]transfer.Record{rec}, 3)
		for _, cfg := range top {
			if err := warmOpt.Observe(cfg, warmF(cfg)); err != nil {
				return t, err
			}
		}
		if _, err := trial.Run(trial.NewStudy(warmOpt, nil), &trial.FuncEnv{F: warmF}, trial.Options{Budget: budget - len(top)}); err != nil {
			return t, err
		}
		warm = append(warm, *warmBest)
		// Warm start pretending the prior came from a dissimilar workload:
		// similarity weighting should shrink its influence.
		recFar := rec
		recFar.Workload = far.Features()
		farOpt := bo.New(d.Space(), rand.New(rand.NewSource(seed+int64(s)*997+3)))
		if _, err := transfer.WarmStart(farOpt, []transfer.Record{recFar}, transfer.WarmStartOptions{
			MaxTrials: 20, SimilarityWeighting: true, TargetWorkload: dst.Features(),
		}); err != nil {
			return t, err
		}
		farF, farBest := trackMin()
		topFar := transfer.TopConfigs([]transfer.Record{recFar}, 3)
		for _, cfg := range topFar {
			if err := farOpt.Observe(cfg, farF(cfg)); err != nil {
				return t, err
			}
		}
		if _, err := trial.Run(trial.NewStudy(farOpt, nil), &trial.FuncEnv{F: farF}, trial.Options{Budget: budget - len(topFar)}); err != nil {
			return t, err
		}
		warmFar = append(warmFar, *farBest)
	}
	t.Rows = append(t.Rows, []string{"cold start", fm(stats.Mean(cold))})
	t.Rows = append(t.Rows, []string{"warm start (similar workload)", fm(stats.Mean(warm))})
	t.Rows = append(t.Rows, []string{"warm start (dissimilar, similarity-weighted)", fm(stats.Mean(warmFar))})
	t.Notes = "Warm starting from a similar workload reaches in a handful of trials what cold start needs the whole budget for; dissimilar priors are shrunk toward the mean and neither help nor hurt much."
	return t, nil
}
