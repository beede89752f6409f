// Fault-tolerant tuning: the tutorial's systems-challenges half (slides
// 65-75) says real trials crash, hang, straggle, and lie. This demo tunes
// the simulated DBMS through a fault injector (transient failures, hangs,
// stragglers, TUNA-style flaky machines) hardened with retries, per-trial
// deadlines, and crash-region quarantine — then kills a run that journals
// into a study store mid-flight and resumes it from the store without
// re-running completed trials.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"autotune"
	"autotune/internal/cloud"
	"autotune/internal/resilience"
	"autotune/internal/simsys"
	"autotune/internal/trial"
	"autotune/internal/workload"
)

func main() {
	wl := workload.TPCC()
	newEnv := func() *trial.SystemEnv {
		return &trial.SystemEnv{Sys: simsys.NewDBMS(simsys.MediumVM()), WL: wl}
	}
	opts := trial.Options{Budget: 40}

	// ---- 1. Baseline: a fault-free run. -------------------------------
	cleanOpt, _ := autotune.NewOptimizer("smac", newEnv().Space(), 1)
	cleanRep, err := trial.Run(trial.NewStudy(cleanOpt, nil), newEnv(), opts)
	check(err)
	fmt.Printf("fault-free:     best %7.3f ms   %2d crashes   cost %6.0fs\n",
		cleanRep.BestValue, cleanRep.Crashes, cleanRep.TotalCostSeconds)

	// ---- 2. The same tuning under heavy fault injection. --------------
	// A small fleet where 1 in 4 machines is flaky supplies per-VM
	// faults; flat rates add transient errors, hangs, and stragglers.
	hosts := cloud.SampleHosts(8, cloud.Options{FlakyProb: 0.25}, rand.New(rand.NewSource(7)))
	breaker := resilience.NewBreaker()
	injector := resilience.NewInjector(newEnv(), resilience.InjectorOptions{
		TransientProb: 0.25,
		HangProb:      0.05,
		HangFor:       20 * time.Millisecond,
		StragglerProb: 0.10,
		Hosts:         hosts,
		Breaker:       breaker,
		Seed:          7,
	})
	hardened := resilience.Wrap(injector, resilience.Options{
		Retries:      6,
		Backoff:      resilience.Backoff{Base: time.Millisecond},
		TrialTimeout: 100 * time.Millisecond,
		Breaker:      breaker,
		Seed:         7,
	})
	faultyOpt, _ := autotune.NewOptimizer("smac", hardened.Space(), 1)
	faultyRep, err := trial.Run(trial.NewStudy(faultyOpt, nil), hardened, trial.Options{
		Budget: opts.Budget, DegradeAfterTimeouts: 3,
	})
	check(err)
	is, hs := injector.Stats(), hardened.Stats()
	fmt.Printf("fault-injected: best %7.3f ms   %2d crashes   cost %6.0fs\n",
		faultyRep.BestValue, faultyRep.Crashes, faultyRep.TotalCostSeconds)
	fmt.Printf("  injected: %d transients, %d hangs, %d stragglers, %d host faults (%d flaky VMs)\n",
		is.Transients, is.Hangs, is.Stragglers, is.HostFaults, flaky(hosts))
	fmt.Printf("  absorbed: %d retries over %d attempts, %d timeouts, %d quarantined, %d breaker trips\n",
		hs.Retries, hs.Attempts, hs.Timeouts, hs.Quarantined, breaker.Trips())
	fmt.Printf("  quality gap vs fault-free: %+.1f%%\n\n",
		100*(faultyRep.BestValue-cleanRep.BestValue)/cleanRep.BestValue)

	// ---- 3. Kill a run journaling into a study store, then resume it. --
	store, err := os.MkdirTemp("", "autotune-faulttolerant-store")
	check(err)
	defer os.RemoveAll(store)

	killable := newCountingEnv(newEnv())
	ctx, cancel := context.WithCancel(context.Background())
	killable.after(15, cancel) // "kill -9" after 15 trials
	sj1, err := trial.OpenStudyJournal(store, "")
	check(err)
	opt1, _ := autotune.NewOptimizer("smac", killable.Space(), 1)
	_, err = trial.RunContext(ctx, trial.NewStudy(opt1, sj1), killable, opts)
	fmt.Printf("killed mid-run after %d trials: %v\n", killable.runs, err)
	check(sj1.Close())

	// A fresh process: open the store once, replay its history into a new
	// study around a new optimizer, and run that study to the budget.
	ranBefore := killable.runs
	sj2, err := trial.OpenStudyJournal(store, "")
	check(err)
	defer sj2.Close()
	history, err := sj2.Records(killable.Space())
	check(err)
	opt2, _ := autotune.NewOptimizer("smac", killable.Space(), 2)
	study := trial.NewStudy(opt2, sj2)
	check(study.Replay(history))
	rep, err := trial.Run(study, killable, opts)
	check(err)
	fmt.Printf("resumed: %d trials replayed from the store, %d run fresh, best %7.3f ms\n",
		rep.Resumed, killable.runs-ranBefore, rep.BestValue)
	if killable.runs-ranBefore != opts.Budget-rep.Resumed {
		panic("resume re-ran completed trials")
	}
}

// countingEnv counts trials and can cancel a context after n of them.
type countingEnv struct {
	*trial.SystemEnv
	runs    int
	killAt  int
	killFun context.CancelFunc
}

func newCountingEnv(inner *trial.SystemEnv) *countingEnv {
	return &countingEnv{SystemEnv: inner}
}

func (e *countingEnv) after(n int, cancel context.CancelFunc) {
	e.killAt, e.killFun = n, cancel
}

func (e *countingEnv) Run(ctx context.Context, cfg autotune.Config, fid float64) (trial.Result, error) {
	e.runs++
	if e.killFun != nil && e.runs >= e.killAt {
		e.killFun()
	}
	return e.SystemEnv.Run(ctx, cfg, fid)
}

func flaky(hosts []cloud.HostProfile) int {
	n := 0
	for _, h := range hosts {
		if h.Flaky {
			n++
		}
	}
	return n
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "faulttolerant:", err)
		os.Exit(1)
	}
}
