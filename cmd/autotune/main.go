// Command autotune runs an offline tuning session against one of the
// simulated systems and prints (and optionally persists) the result.
//
// Usage:
//
//	autotune -system simdb -workload tpcc -optimizer bo -budget 60
//	autotune -system simredis -workload ycsb-b -metric p95 -optimizer smac
//	autotune -system simdb -optimizer bo -parallel 4 -out report.json
//
// Resilient execution (fault injection, retries, deadlines):
//
//	autotune -system simdb -faults 0.25 -retries 4 -trial-timeout 2s
//
// Asynchronous scheduling (hedged stragglers):
//
//	autotune -system simdb -parallel 8 -sched -hedge 0.9 -faults 0.2
//
// Persistent study store (the write-ahead trial journal: segmented,
// crash-safe, multi-study) and resuming a killed run from it:
//
//	autotune -system simdb -budget 200 -store studies/
//	autotune -system simdb -budget 200 -store studies/ -resume
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"autotune/internal/bo"
	"autotune/internal/cloud"
	"autotune/internal/core"
	"autotune/internal/resilience"
	"autotune/internal/sched"
	"autotune/internal/simsys"
	"autotune/internal/trial"
	"autotune/internal/workload"
)

// cliOptions collects every flag so tests can drive run() directly.
type cliOptions struct {
	system, wlName, optName, metric, vmSize string
	budget, parallel                        int
	abortMargin, fidelity                   float64
	seed                                    int64
	noise                                   float64
	out                                     string

	// Resilience.
	faults       float64 // transient fault injection rate (0 = off)
	hangs        float64 // hang injection rate (0 = off)
	retries      int
	trialTimeout time.Duration
	resume       bool

	// Asynchronous scheduling.
	sched   bool    // enable the async scheduler even without hedging
	workers int     // worker slots (0 = one per parallel trial)
	hedge   float64 // straggler hedge quantile in (0,1) (0 = off)

	// Persistent study store.
	store string // segmented study store directory (the write-ahead trial journal)
	study string // study name inside -store ("" = derived from system/workload)

	// Performance.
	dedup     bool   // deduplicate identical (config, fidelity) evaluations
	gpWorkers int    // surrogate gram/predict goroutines (0 = GOMAXPROCS)
	surrogate string // BO surrogate tier policy ("" = auto)
	denseMax  int    // auto policy's dense-GP history ceiling (0 = default)
}

func main() {
	var o cliOptions
	flag.StringVar(&o.system, "system", "simdb", "system to tune: simdb | simredis | simspark")
	flag.StringVar(&o.wlName, "workload", "tpcc", "workload: ycsb-a..f | tpcc | tpch-sf1")
	flag.StringVar(&o.optName, "optimizer", "bo", fmt.Sprintf("optimizer: %v", core.OptimizerNames()))
	flag.StringVar(&o.metric, "metric", "latency", "objective: latency | p95 | throughput")
	flag.StringVar(&o.vmSize, "vm", "medium", "host size: small | medium | large")
	flag.IntVar(&o.budget, "budget", 60, "number of trials")
	flag.IntVar(&o.parallel, "parallel", 1, "batch-parallel trials")
	flag.Float64Var(&o.abortMargin, "abort-margin", 0, "early-abort margin (0 disables)")
	flag.Float64Var(&o.fidelity, "fidelity", 1, "benchmark fidelity in (0, 1]")
	flag.Int64Var(&o.seed, "seed", 1, "random seed")
	flag.Float64Var(&o.noise, "noise", 0, "measurement noise sigma (0 = deterministic)")
	flag.StringVar(&o.out, "out", "", "write the full trial report to this JSON file")
	flag.Float64Var(&o.faults, "faults", 0, "inject transient trial failures at this rate (0 = off)")
	flag.Float64Var(&o.hangs, "hangs", 0, "inject hanging trials at this rate (0 = off)")
	flag.IntVar(&o.retries, "retries", 0, "retry transient trial failures this many times (exponential backoff)")
	flag.DurationVar(&o.trialTimeout, "trial-timeout", 0, "per-trial deadline (0 = unbounded)")
	flag.BoolVar(&o.resume, "resume", false, "resume from -store instead of starting over")
	flag.BoolVar(&o.sched, "sched", false, "run trials on the asynchronous scheduler instead of the batch barrier")
	flag.IntVar(&o.workers, "workers", 0, "scheduler worker slots (0 = one per parallel trial)")
	flag.Float64Var(&o.hedge, "hedge", 0, "hedge stragglers past this quantile of recent durations (0 = off, implies -sched)")
	flag.StringVar(&o.store, "store", "", "journal every completed trial into the crash-safe segmented study store at this directory before the optimizer observes it")
	flag.StringVar(&o.study, "study", "", "study name inside -store (default: <system>-<workload>)")
	flag.BoolVar(&o.dedup, "dedup", false, "reuse cached results for repeated (config, fidelity) evaluations")
	flag.IntVar(&o.gpWorkers, "gp-workers", 0, "GP surrogate gram/predict goroutines (0 = GOMAXPROCS; results are identical for any value)")
	flag.StringVar(&o.surrogate, "surrogate", "auto", "BO surrogate tier: auto | dense | sparse | local | forest")
	flag.IntVar(&o.denseMax, "dense-max", 0, "history size past which the auto policy leaves the dense GP (0 = default 512)")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "autotune:", err)
		os.Exit(1)
	}
}

func run(o cliOptions) error {
	spec := simsys.VMByName(o.vmSize)
	var sys simsys.System
	switch o.system {
	case "simdb":
		d := simsys.NewDBMS(spec)
		if o.noise > 0 {
			d.NoiseSigma = o.noise
		}
		sys = d
	case "simredis":
		r := simsys.NewRedis(spec)
		if o.noise > 0 {
			r.NoiseSigma = o.noise
		}
		sys = r
	case "simspark":
		s := simsys.NewSpark(spec)
		if o.noise > 0 {
			s.NoiseSigma = o.noise
		}
		sys = s
	default:
		return fmt.Errorf("unknown system %q", o.system)
	}
	wl, err := workload.ByName(o.wlName)
	if err != nil {
		return err
	}
	objective := func(m simsys.Metrics) float64 { return m.LatencyMS }
	switch o.metric {
	case "latency":
	case "p95":
		objective = func(m simsys.Metrics) float64 { return m.P95MS }
	case "throughput":
		objective = func(m simsys.Metrics) float64 { return -m.ThroughputOps }
	default:
		return fmt.Errorf("unknown metric %q", o.metric)
	}

	var rng *rand.Rand
	if o.noise > 0 {
		rng = rand.New(rand.NewSource(o.seed + 1))
	}
	var env trial.Environment = &trial.SystemEnv{Sys: sys, WL: wl, Objective: objective, Rng: rng}
	var injector *resilience.Injector
	var hardened *resilience.Env
	var hosts []cloud.HostProfile
	if o.faults > 0 || o.hangs > 0 {
		// A small fleet with TUNA-style flaky machines supplies per-host
		// faults on top of the flat injection rates.
		hosts = cloud.SampleHosts(8, cloud.Options{FlakyProb: 0.2}, rand.New(rand.NewSource(o.seed+2)))
		injector = resilience.NewInjector(env, resilience.InjectorOptions{
			TransientProb: o.faults,
			HangProb:      o.hangs,
			StragglerProb: o.faults / 2,
			Hosts:         hosts,
			Seed:          o.seed + 3,
		})
		env = injector
	}
	if o.retries > 0 || o.trialTimeout > 0 || injector != nil {
		hardened = resilience.Wrap(env, resilience.Options{
			Retries:      o.retries,
			TrialTimeout: o.trialTimeout,
			Breaker:      resilience.NewBreaker(),
			Seed:         o.seed + 4,
		})
		env = hardened
	}
	opt, err := core.NewOptimizer(o.optName, sys.Space(), rand.New(rand.NewSource(o.seed)))
	if err != nil {
		return err
	}
	boOpt, isBO := opt.(*bo.BO)
	if isBO {
		if o.gpWorkers > 0 {
			boOpt.SetGPWorkers(o.gpWorkers)
		}
		pol, ok := bo.ParseSurrogate(o.surrogate)
		if !ok {
			return fmt.Errorf("unknown -surrogate %q (want auto | dense | sparse | local | forest)", o.surrogate)
		}
		boOpt.SetSurrogate(pol)
		if o.denseMax > 0 {
			boOpt.SetDenseMax(o.denseMax)
		}
	} else if o.surrogate != "auto" && o.surrogate != "" {
		return fmt.Errorf("-surrogate applies to the bo optimizer, not %q", o.optName)
	}
	topts := trial.Options{
		Budget: o.budget, Parallel: o.parallel, AbortMargin: o.abortMargin, Fidelity: o.fidelity,
		DedupEvals: o.dedup,
	}
	var storeSink *trial.StudyJournal
	study := trial.NewStudy(opt, nil)
	if o.store != "" {
		name := o.study
		if name == "" {
			name = o.system + "-" + o.wlName
		}
		// One handle journals this run and, on -resume, supplies the
		// history; the end-of-run stats line reports the write path this
		// run actually took (fsyncs, group amortization).
		sj, err := trial.OpenStudyJournal(o.store, name)
		if err != nil {
			return err
		}
		defer sj.Close()
		storeSink = sj
		study = trial.NewStudy(opt, sj)
	}
	if o.trialTimeout > 0 {
		topts.DegradeAfterTimeouts = 3
	}
	if o.sched || o.hedge > 0 || o.workers > 0 {
		// The scheduler places trials on the same fleet the injector
		// samples from (when faults are on), so hedging sees the real
		// host speed multipliers.
		topts.Scheduler = &sched.Options{Hosts: hosts, Workers: o.workers, HedgeQuantile: o.hedge}
	}
	ctx := context.Background()
	if o.resume {
		if storeSink == nil {
			return fmt.Errorf("-resume needs -store")
		}
		history, err := storeSink.Records(sys.Space())
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		if err := study.Replay(history); err != nil {
			return fmt.Errorf("resume replay: %w", err)
		}
		fmt.Printf("resuming %s on %s from %s...\n", o.system, wl.Name, o.store)
	} else {
		fmt.Printf("tuning %s on %s (%s VM) with %s, %d trials...\n",
			o.system, wl.Name, o.vmSize, o.optName, o.budget)
	}
	rep, err := trial.RunContext(ctx, study, env, topts)
	if err != nil {
		return err
	}

	defRes, defErr := env.Run(ctx, sys.Space().Default(), o.fidelity)
	fmt.Printf("\nbest objective: %.6g", rep.BestValue)
	if defErr == nil {
		fmt.Printf("   (default: %.6g, improvement %.1f%%)",
			defRes.Value, 100*(defRes.Value-rep.BestValue)/absf(defRes.Value))
	}
	fmt.Printf("\ntrials: %d   crashes: %d   aborts: %d   cost: %.0fs (wall %.0fs)\n",
		len(rep.Trials), rep.Crashes, rep.Aborts, rep.TotalCostSeconds, rep.WallClockSeconds)
	if rep.Resumed > 0 || rep.Timeouts > 0 || rep.Degradations > 0 {
		fmt.Printf("resumed: %d   timeouts: %d   fidelity degradations: %d\n",
			rep.Resumed, rep.Timeouts, rep.Degradations)
	}
	if topts.Scheduler != nil {
		fmt.Printf("scheduler: %d hedges (%d wins)   panics: %d\n",
			rep.Hedges, rep.HedgeWins, rep.Panics)
	}
	if o.dedup {
		fmt.Printf("eval cache: %d hits\n", rep.CacheHits)
	}
	if isBO {
		if s := boOpt.Stats(); s.Tier != "" {
			fmt.Printf("surrogate: tier=%s switches=%d incremental=%d refits=%d\n",
				s.Tier, s.TierSwitches, s.IncrementalUpdates, s.FullRefits)
		}
	}
	if storeSink != nil {
		stats := storeSink.Store().Stats()
		fmt.Printf("store: %d records in %d studies (%d segments, snapshot seq %d, %d quarantined)\n",
			stats.Records, stats.Studies, stats.Segments, stats.SnapshotSeq, stats.Quarantined)
		fmt.Printf("store commit: %d appends, %d bytes, %d fsyncs in %d groups (mean %.1f, max %d)%s\n",
			stats.Appended, stats.AppendedBytes, stats.Fsyncs, stats.Groups,
			stats.MeanGroup(), stats.MaxGroup, poisonedSuffix(stats.Poisoned))
	}
	if hardened != nil {
		s := hardened.Stats()
		fmt.Printf("resilience: %d attempts, %d retries, %d timeouts, %d quarantined\n",
			s.Attempts, s.Retries, s.Timeouts, s.Quarantined)
	}
	if injector != nil {
		s := injector.Stats()
		fmt.Printf("injected: %d transients, %d hangs, %d stragglers, %d host faults\n",
			s.Transients, s.Hangs, s.Stragglers, s.HostFaults)
	}
	fmt.Println()

	fmt.Println("best configuration:")
	names := make([]string, 0, len(rep.BestConfig))
	for k := range rep.BestConfig {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-24s = %v\n", k, rep.BestConfig[k])
	}
	if o.out != "" {
		if err := rep.Save(o.out); err != nil {
			return err
		}
		fmt.Printf("\nreport written to %s\n", o.out)
	}
	return nil
}

// poisonedSuffix flags a store whose write path failed mid-run: every
// record reported above is still durable, but later appends were refused.
func poisonedSuffix(poisoned bool) string {
	if poisoned {
		return "  [POISONED: writes refused after an fsync failure]"
	}
	return ""
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	if v == 0 {
		return 1
	}
	return v
}
