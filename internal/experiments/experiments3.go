package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"autotune/internal/bo"
	"autotune/internal/cloud"
	"autotune/internal/core"
	"autotune/internal/heuristic"
	"autotune/internal/importance"
	"autotune/internal/noise"
	"autotune/internal/optimizer"
	"autotune/internal/simsys"
	"autotune/internal/smac"
	"autotune/internal/space"
	"autotune/internal/stats"
	"autotune/internal/trial"
	"autotune/internal/workload"
	"autotune/internal/workloadid"
)

// ---- F15: knob importance narrows the space (slide 68) ----

func init() { registry["F15"] = runF15 }

func runF15(quick bool, seed int64) (Table, error) {
	d := simsys.NewDBMS(simsys.MediumVM())
	wl := workload.TPCC()
	obj := dbmsLatencyObjective(d, wl)
	rng := rand.New(rand.NewSource(seed))
	nSamples := pick(quick, 120, 300)
	budget := pick(quick, 25, 50)
	seeds := pick(quick, 3, 10)

	// Historical trials (the OtterTune prerequisite). Crashed runs are
	// excluded and latency is log-transformed before ranking — otherwise
	// the regression learns the OOM-crash boundary (which knobs overcommit
	// memory) instead of the performance surface.
	var cfgs []space.Config
	var ys []float64
	for i := 0; i < nSamples; i++ {
		cfg := d.Space().Sample(rng)
		v := obj(cfg)
		if v >= 1e6 {
			continue // crashed trial
		}
		cfgs = append(cfgs, cfg)
		ys = append(ys, math.Log(v))
	}
	lasso, err := importance.Lasso(d.Space(), cfgs, ys, 0.02)
	if err != nil {
		return Table{}, err
	}
	perm, err := importance.Permutation(d.Space(), cfgs, ys, rng)
	if err != nil {
		return Table{}, err
	}
	truth := d.ImportantKnobs(wl)
	overlap := func(r importance.Ranking) int {
		top := map[string]bool{}
		for _, n := range r.TopK(5) {
			top[n] = true
		}
		hits := 0
		for _, k := range truth {
			if top[k] {
				hits++
			}
		}
		return hits
	}
	t := Table{
		ID:      "F15",
		Title:   "Knob importance (Lasso / permutation) and top-k space narrowing",
		Claim:   "OtterTune uses Lasso to find important knobs; SHAP-style rankings serve the same role (slide 68)",
		Headers: []string{"method", "top-5 knobs", "overlap with ground truth (of 5)"},
	}
	t.Rows = append(t.Rows, []string{"lasso", fmt.Sprint(lasso.TopK(5)), strconv.Itoa(overlap(lasso))})
	t.Rows = append(t.Rows, []string{"permutation (RF)", fmt.Sprint(perm.TopK(5)), strconv.Itoa(overlap(perm))})

	// Tuning narrowed vs full space: keep the top 7 knobs (a 3x space
	// reduction) and pin the remaining 14 at defaults.
	sub, complete, err := importance.Narrow(d.Space(), perm.TopK(7), d.Space().Default())
	if err != nil {
		return Table{}, err
	}
	narrowBest, err := meanBestOver(func(r *rand.Rand) optimizer.Optimizer {
		return bo.New(sub, r)
	}, func(c space.Config) float64 { return obj(complete(c)) }, budget, seeds, seed)
	if err != nil {
		return t, err
	}
	fullBest, err := meanBestOver(func(r *rand.Rand) optimizer.Optimizer {
		return bo.New(d.Space(), r)
	}, obj, budget, seeds, seed)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{fmt.Sprintf("tune top-7 only (%d trials)", budget), fm(narrowBest), "-"})
	t.Rows = append(t.Rows, []string{fmt.Sprintf("tune all 21 knobs (%d trials)", budget), fm(fullBest), "-"})
	t.Notes = "Both rankers recover most ground-truth knobs; tuning just the top-7 (of 21) stays within striking distance of full-space tuning while shrinking the space 3x."
	return t, nil
}

// ---- F16: early abort (slide 69) ----

func init() { registry["F16"] = runF16 }

func runF16(quick bool, seed int64) (Table, error) {
	d := simsys.NewDBMS(simsys.MediumVM())
	wl := workload.TPCH(1) // elapsed-time benchmark: the slide's example
	budget := pick(quick, 25, 60)
	seeds := pick(quick, 3, 10)
	t := Table{
		ID:      "F16",
		Title:   "Early abort of clearly-bad trials (elapsed-time benchmarks)",
		Claim:   "Report a bad score sooner: stop a TPC-H run once it exceeds the incumbent (slide 69)",
		Headers: []string{"strategy", "mean best (ms)", "mean total cost (s)", "mean aborted trials"},
	}
	for _, margin := range []float64{0, 0.25} {
		var bests, costs, aborts []float64
		for s := 0; s < seeds; s++ {
			rng := rand.New(rand.NewSource(seed + int64(s)*577))
			env := &trial.SystemEnv{Sys: d, WL: wl}
			o := optimizer.NewRandom(d.Space(), rng)
			rep, err := trial.Run(trial.NewStudy(o, nil), env, trial.Options{Budget: budget, AbortMargin: margin})
			if err != nil {
				return t, err
			}
			bests = append(bests, rep.BestValue)
			costs = append(costs, rep.TotalCostSeconds)
			aborts = append(aborts, float64(rep.Aborts))
		}
		name := "run every trial to completion"
		if margin > 0 {
			name = fmt.Sprintf("abort above best x %.2f", 1+margin)
		}
		t.Rows = append(t.Rows, []string{name, fm(stats.Mean(bests)), fmN(stats.Mean(costs)), fm(stats.Mean(aborts))})
	}
	t.Notes = "Aborting trials that exceed the incumbent by 25% cuts total benchmark time substantially with no loss in the best configuration found."
	return t, nil
}

// ---- F17: noisy cloud mitigation (slides 70-71) ----

func init() { registry["F17"] = runF17 }

func runF17(quick bool, seed int64) (Table, error) {
	sys := simsys.NewDBMS(simsys.MediumVM())
	sys.NoiseSigma = 0
	wl := workload.TPCC()
	budget := pick(quick, 20, 40)
	seeds := pick(quick, 4, 15)
	t := Table{
		ID:      "F17",
		Title:   "Tuning on a noisy fleet: naive vs replicated vs duet vs TUNA scoring",
		Claim:   "Machine noise slows learning; duet pairing and TUNA's replicated, outlier-rejected scores restore it (slides 70-71)",
		Headers: []string{"scoring strategy", "mean true latency of final pick (ms)", "mean samples per trial"},
	}
	type strat struct {
		name  string
		score func(f *cloud.Fleet, tuna *noise.TUNA, cfg space.Config, i int) (float64, int)
	}
	strategies := []strat{
		{"naive single sample", func(f *cloud.Fleet, _ *noise.TUNA, cfg space.Config, i int) (float64, int) {
			return f.Sample(cfg, i), 1
		}},
		{"mean of 3 samples", func(f *cloud.Fleet, _ *noise.TUNA, cfg space.Config, i int) (float64, int) {
			v, _ := noise.Repeated(f, cfg, 3, noise.PolicyMean)
			return v, 3
		}},
		{"duet vs default", func(f *cloud.Fleet, _ *noise.TUNA, cfg space.Config, i int) (float64, int) {
			v, _ := noise.Duet(f, sys.Space().Default(), cfg, 2)
			return v, 4
		}},
		{"TUNA (replicated + outlier rejection)", func(_ *cloud.Fleet, tuna *noise.TUNA, cfg space.Config, i int) (float64, int) {
			v, spent, _ := tuna.Score(cfg)
			return v, spent
		}},
	}
	for _, s := range strategies {
		var finals, spents []float64
		for sd := 0; sd < seeds; sd++ {
			rng := rand.New(rand.NewSource(seed + int64(sd)*307))
			fleet := cloud.NewFleet(sys, wl, 6, cloud.Options{
				MachineSigma: 0.12, OutlierProb: 0.2, MeasurementSigma: 0.05,
			}, rng)
			tuna := noise.NewTUNA(fleet, sys.Space().Default())
			tuna.MaxReplicas = 3
			o := smac.New(sys.Space(), rng)
			spent := 0
			i := 0
			wrapped := func(cfg space.Config) float64 {
				v, n := s.score(fleet, tuna, cfg, i)
				spent += n
				i++
				if math.IsInf(v, 0) || math.IsNaN(v) {
					return 1e6
				}
				return v
			}
			rep, err := trial.Run(trial.NewStudy(o, nil), &trial.FuncEnv{F: wrapped}, trial.Options{Budget: budget})
			if err != nil {
				return t, fmt.Errorf("%s seed %d: %w", s.name, seed+int64(sd)*307, err)
			}
			truth := fleet.TrueScore(rep.BestConfig)
			if math.IsInf(truth, 0) {
				truth = 1e6
			}
			finals = append(finals, truth)
			spents = append(spents, float64(spent)/float64(budget))
		}
		t.Rows = append(t.Rows, []string{s.name, fm(stats.Mean(finals)), fm(stats.Mean(spents))})
	}
	t.Notes = "TUNA's replicated, outlier-rejected scores pick the best true config; plain 3-sample averaging also helps. Duet is within noise of naive here because the fleet's machine multipliers mostly cancel in SMAC's ranking anyway — its advantage shows when machines differ persistently and configs are compared across them (see the duet-vs-naive estimator test in internal/noise)."
	return t, nil
}

// ---- F18: online tuning under workload shift (slides 76-84) ----

func init() { registry["F18"] = runF18 }

// onlineDBMS adapts the simulated DBMS to core.OnlineSystem with a
// workload that shifts at a fixed step.
type onlineDBMS struct {
	d         *simsys.DBMS
	before    workload.Descriptor
	after     workload.Descriptor
	shiftStep int
	step      int
	cur       space.Config
	rng       *rand.Rand
}

func (o *onlineDBMS) Space() *space.Space { return o.d.Space() }

func (o *onlineDBMS) Apply(cfg space.Config) error {
	o.cur = cfg.Clone()
	return nil
}

func (o *onlineDBMS) workload() workload.Descriptor {
	if o.step >= o.shiftStep {
		return o.after
	}
	return o.before
}

func (o *onlineDBMS) Measure() (float64, []float64) {
	o.step++
	wl := o.workload()
	m, err := o.d.Run(o.cur, wl, 0.2, o.rng)
	// A crashed config shows up as a timeout-capped measurement: still
	// catastrophic (100x the SLO) but not so large that a single crash
	// dominates a 250-step mean unreadably.
	loss := 300.0
	if err == nil {
		loss = m.LatencyMS
	}
	ctx := []float64{wl.ReadRatio, wl.WriteFraction(), wl.ScanRatio}
	return loss, ctx
}

func runF18(quick bool, seed int64) (Table, error) {
	d := simsys.NewDBMS(simsys.MediumVM())
	d.NoiseSigma = 0.02
	before := workload.YCSBB() // read-mostly
	after := workload.YCSBA()  // write-heavy
	steps := pick(quick, 200, 500)
	shiftAt := steps / 2
	seeds := pick(quick, 3, 8)
	sloLimit := 3.0 // ms: the "performance regression" bar

	t := Table{
		ID:      "F18",
		Title:   "Online tuning across a workload shift (read-mostly -> write-heavy)",
		Claim:   "Online agents adapt to shifts; guardrails cap regressions (slides 76-84)",
		Headers: []string{"policy", "mean loss before shift", "mean loss after shift", "SLO violations %", "rollbacks"},
	}
	mkArms := func() []space.Config {
		return []space.Config{
			d.Space().Default(),
			heuristic.DBMSConfig(d, before),
			heuristic.DBMSConfig(d, after),
		}
	}
	policies := []struct {
		name string
		mk   func() (core.Policy, error)
	}{
		{"random-walk (baseline)", func() (core.Policy, error) {
			return core.NewRandomWalkPolicy(d.Space()), nil
		}},
		{"qlearning-delta", func() (core.Policy, error) {
			return core.NewDeltaPolicy(d.Space(), []string{"buffer_pool_mb", "worker_threads", "io_threads", "wal_buffer_kb"})
		}},
		{"hybrid-bandit (preset arms)", func() (core.Policy, error) {
			return core.NewBanditPolicy(mkArms())
		}},
		{"actor-critic", func() (core.Policy, error) {
			return core.NewActorCriticPolicy(d.Space(),
				[]string{"buffer_pool_mb", "worker_threads", "io_threads", "wal_buffer_kb"}, 3, seed)
		}},
		{"safe-bo (OnlineTune-style)", func() (core.Policy, error) {
			return core.NewSafeBOPolicy(d.Space(), seed), nil
		}},
	}
	for _, p := range policies {
		var pre, post, viol, rolls []float64
		for s := 0; s < seeds; s++ {
			rng := rand.New(rand.NewSource(seed + int64(s)*131))
			sys := &onlineDBMS{d: d, before: before, after: after, shiftStep: shiftAt, rng: rng}
			pol, err := p.mk()
			if err != nil {
				return t, err
			}
			agent, err := core.NewAgent(sys, pol, core.Guardrails{MaxRegression: 0.3, Patience: 2}, rng)
			if err != nil {
				return t, err
			}
			var preSum, postSum float64
			var preN, postN, violations int
			for i := 0; i < steps; i++ {
				rep, err := agent.Step()
				if err != nil {
					return t, err
				}
				if rep.Loss > sloLimit {
					violations++
				}
				if i < shiftAt {
					preSum += rep.Loss
					preN++
				} else {
					postSum += rep.Loss
					postN++
				}
			}
			pre = append(pre, preSum/float64(preN))
			post = append(post, postSum/float64(postN))
			viol = append(viol, 100*float64(violations)/float64(steps))
			rolls = append(rolls, float64(agent.Rollbacks()))
		}
		t.Rows = append(t.Rows, []string{
			p.name, fm(stats.Mean(pre)), fm(stats.Mean(post)),
			fm(stats.Mean(viol)), fm(stats.Mean(rolls)),
		})
	}
	t.Notes = "The contextual bandit snaps to the regime-appropriate preset after the shift and safe-BO's gated exploration adapts within a few dozen steps; the from-scratch RL policies (Q-learning deltas, actor-critic) wander at these step counts — the tutorial's argument for pre-training online agents in an offline gym. Guardrail rollbacks stay rare for the careful policies and absorb the exploratory ones' regressions."
	return t, nil
}

// ---- F19: workload identification (slides 88-92) ----

func init() { registry["F19"] = runF19 }

func runF19(quick bool, seed int64) (Table, error) {
	rng := rand.New(rand.NewSource(seed))
	families := []workload.Descriptor{
		workload.YCSBA(), workload.YCSBB(), workload.YCSBE(),
		workload.TPCC(), workload.TPCH(1),
	}
	perFamily := pick(quick, 4, 10)
	window := pick(quick, 64, 128)

	var points [][]float64
	var labels []int
	for li, d := range families {
		for i := 0; i < perFamily; i++ {
			s := workloadid.Synthesize(d, window, rand.New(rand.NewSource(seed+int64(li*100+i))))
			points = append(points, workloadid.EmbedTelemetry(s))
			labels = append(labels, li)
		}
	}
	// Normalize feature columns for clustering.
	normalizeColumns(points)
	assign, _, err := workloadid.KMeansRestarts(points, len(families), 100, 8, rng)
	if err != nil {
		return Table{}, err
	}
	purity := workloadid.Purity(assign, labels)

	// Nearest-neighbour identification accuracy on fresh instances.
	var ix workloadid.Index
	for li, d := range families {
		s := workloadid.Synthesize(d, window, rand.New(rand.NewSource(seed+int64(9000+li))))
		ix.Add(d.Name, workloadid.EmbedTelemetry(s))
	}
	correct := 0
	probes := pick(quick, 10, 30)
	for i := 0; i < probes; i++ {
		li := i % len(families)
		s := workloadid.Synthesize(families[li], window, rand.New(rand.NewSource(seed+int64(5000+i))))
		label, _, err := ix.Nearest(workloadid.EmbedTelemetry(s))
		if err != nil {
			return Table{}, err
		}
		if label == families[li].Name {
			correct++
		}
	}

	// Shift detection delay: stream ycsb-b telemetry, shift to ycsb-a.
	det := workloadid.NewShiftDetector(1.5)
	det.RefWindow = 10
	delay := -1
	streamRng := rand.New(rand.NewSource(seed + 42))
	for step := 0; step < 60; step++ {
		d := workload.YCSBB()
		if step >= 30 {
			d = workload.YCSBA()
		}
		s := workloadid.Synthesize(d, 32, streamRng)
		if det.Observe(workloadid.EmbedTelemetry(s)) {
			delay = step - 30
		}
	}
	t := Table{
		ID:      "F19",
		Title:   "Workload identification: clustering, lookup, shift detection",
		Claim:   "Embed telemetry, cluster similar workloads, reuse configs, detect shifts (slides 88-92)",
		Headers: []string{"metric", "value"},
		Rows: [][]string{
			{"k-means purity (5 families x instances)", fm(purity)},
			{fmt.Sprintf("nearest-workload accuracy (%d probes)", probes), fm(float64(correct) / float64(probes))},
			{"shift detection delay (windows after shift)", strconv.Itoa(delay)},
		},
	}
	t.Notes = "Telemetry embeddings cluster cleanly by family, fresh instances resolve to the right family, and the detector flags the read->write shift within a few windows."
	return t, nil
}

func normalizeColumns(points [][]float64) {
	if len(points) == 0 {
		return
	}
	dim := len(points[0])
	for j := 0; j < dim; j++ {
		col := make([]float64, len(points))
		for i := range points {
			col[i] = points[i][j]
		}
		norm := stats.Normalize(col)
		for i := range points {
			points[i][j] = norm[i]
		}
	}
}

// ---- F20: synthetic benchmark generation (slide 92) ----

func init() { registry["F20"] = runF20 }

func runF20(quick bool, seed int64) (Table, error) {
	d := simsys.NewDBMS(simsys.MediumVM())
	rng := rand.New(rand.NewSource(seed))
	budget := pick(quick, 30, 60)

	// "Production" is a hidden mixture we only see through its embedding.
	bases := []workload.Descriptor{workload.YCSBA(), workload.YCSBC(), workload.TPCH(1)}
	prod, err := workload.Mix(bases, []float64{0.55, 0.30, 0.15})
	if err != nil {
		return Table{}, err
	}
	target := workloadid.EmbedDescriptor(prod)
	synth, weights, err := workloadid.SynthesizeBenchmark(target, bases, 800, rng)
	if err != nil {
		return Table{}, err
	}
	prodObj := dbmsLatencyObjective(d, prod)
	synthObj := dbmsLatencyObjective(d, synth)

	// Tune on the synthetic benchmark, deploy the pick to production.
	tuned, err := trial.Run(trial.NewStudy(smac.New(d.Space(), rng), nil), &trial.FuncEnv{F: synthObj}, trial.Options{Budget: budget})
	if err != nil {
		return Table{}, err
	}
	deployed := prodObj(tuned.BestConfig)
	// Oracle: tune directly on production (privacy/side effects forbid
	// this in reality — that is the slide's point).
	oracle, err := trial.Run(trial.NewStudy(smac.New(d.Space(), rand.New(rand.NewSource(seed+1))), nil), &trial.FuncEnv{F: prodObj}, trial.Options{Budget: budget})
	if err != nil {
		return Table{}, err
	}
	defLat := prodObj(d.Space().Default())

	t := Table{
		ID:      "F20",
		Title:   "Synthetic benchmark generation from workload embeddings",
		Claim:   "Generate a query mixture matching production telemetry, tune offline on it, deploy the config (slide 92, Stitcher)",
		Headers: []string{"configuration", "production latency (ms)"},
		Rows: [][]string{
			{"default", fm(defLat)},
			{fmt.Sprintf("tuned on synthetic mix %v", roundSlice(weights)), fm(deployed)},
			{"oracle: tuned on production directly", fm(oracle.BestValue)},
		},
	}
	t.Notes = "The recovered mixture is close enough that the config tuned on the synthetic benchmark captures most of the oracle's improvement without ever touching production."
	return t, nil
}

func roundSlice(w []float64) []float64 {
	out := make([]float64, len(w))
	for i, v := range w {
		out[i] = math.Round(v*100) / 100
	}
	return out
}
