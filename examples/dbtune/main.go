// DBMS knob tuning on a TPC-C-like workload: the 21-knob simulated
// database with conditional parameters (jit_above_cost is only active when
// jit = on), a declared memory constraint (the OOM cliff from slide 60),
// a rule-based pgtune-style baseline, and SMAC — the tree-based optimizer
// the tutorial recommends for hybrid spaces — on top.
package main

import (
	"fmt"
	"sort"

	"autotune"
	"autotune/internal/heuristic"
	"autotune/internal/simsys"
	"autotune/internal/trial"
	"autotune/internal/workload"
)

func main() {
	db := simsys.NewDBMS(simsys.MediumVM())
	wl := workload.TPCC()

	// Declare the crash boundary as a constraint so the tuner samples
	// inside the feasible region instead of OOM-ing into it.
	sp := db.Space().WithConstraints(db.MemoryConstraint(wl.Clients))
	env := &trial.SystemEnv{Sys: constrained{db, sp}, WL: wl}

	show := func(name string, cfg autotune.Config) float64 {
		m, err := db.Run(cfg, wl, 1, nil)
		if err != nil {
			fmt.Printf("%-22s crashed: %v\n", name, err)
			return 0
		}
		fmt.Printf("%-22s latency %7.3f ms   throughput %8.0f ops/s\n",
			name, m.LatencyMS, m.ThroughputOps)
		return m.LatencyMS
	}

	defLat := show("shipped defaults", db.Space().Default())
	ruleCfg := heuristic.DBMSConfig(db, wl)
	show("pgtune-style rules", ruleCfg)

	opt, err := autotune.NewOptimizer("smac", sp, 11)
	if err != nil {
		panic(err)
	}
	rep, err := autotune.Tune(autotune.NewStudy(opt, nil), env, autotune.TuneOptions{Budget: 60})
	if err != nil {
		panic(err)
	}
	tunedLat := show("smac (60 trials)", rep.BestConfig)

	fmt.Printf("\ncrashed trials: %d (constraint keeps sampling feasible)\n", rep.Crashes)
	fmt.Printf("tuned vs default: %.1fx lower latency\n\n", defLat/tunedLat)

	fmt.Println("knobs SMAC changed most (vs defaults):")
	def := db.Space().Default()
	var names []string
	for k := range rep.BestConfig {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if fmt.Sprint(def[k]) != fmt.Sprint(rep.BestConfig[k]) {
			fmt.Printf("  %-20s %v -> %v\n", k, def[k], rep.BestConfig[k])
		}
	}
}

// constrained overrides the system's space with the constraint-carrying
// one so the environment hands it to the optimizer.
type constrained struct {
	*simsys.DBMS
	sp *autotune.Space
}

func (c constrained) Space() *autotune.Space { return c.sp }
