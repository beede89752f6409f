// Command kvbench benchmarks — and optionally tunes — the real in-memory
// KV store in internal/kvstore with live measurements: shard counts change
// actual lock contention, eviction policies change actual hit rates.
//
// Usage:
//
//	kvbench -workload ycsb-b -ops 200000 -workers 4      # one measurement
//	kvbench -tune -optimizer smac -budget 20             # tune for ops/sec
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"autotune/internal/core"
	"autotune/internal/kvstore"
	"autotune/internal/space"
	"autotune/internal/trial"
	"autotune/internal/workload"
)

func main() {
	var (
		wlName  = flag.String("workload", "ycsb-b", "workload: ycsb-a..f | tpcc")
		keys    = flag.Uint64("keys", 200_000, "distinct keys preloaded")
		ops     = flag.Int("ops", 200_000, "operations per measurement")
		workers = flag.Int("workers", 4, "concurrent client goroutines")
		seed    = flag.Int64("seed", 1, "random seed")
		tune    = flag.Bool("tune", false, "tune the store instead of one measurement")
		optName = flag.String("optimizer", "smac", "optimizer for -tune")
		budget  = flag.Int("budget", 15, "trials for -tune")
		record  = flag.String("record-trace", "", "record the workload's op trace to this file and exit")
		replay  = flag.String("replay-trace", "", "benchmark by replaying a recorded trace (exact A/B)")
	)
	flag.Parse()

	wl, err := workload.ByName(*wlName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvbench:", err)
		os.Exit(1)
	}
	wl.RecordBytes = 128 // keep memory modest for a CLI demo

	if *record != "" {
		rng := rand.New(rand.NewSource(*seed))
		gen, err := workload.NewGenerator(wl, *keys, rng)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kvbench:", err)
			os.Exit(1)
		}
		tr := workload.Record(gen, *ops)
		if err := tr.Save(*record); err != nil {
			fmt.Fprintln(os.Stderr, "kvbench:", err)
			os.Exit(1)
		}
		fmt.Printf("recorded %d %s ops to %s\n", tr.Len(), tr.Name, *record)
		return
	}
	if *replay != "" {
		tr, err := workload.LoadTrace(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kvbench:", err)
			os.Exit(1)
		}
		st, err := kvstore.Open(kvstore.Space().Default())
		if err != nil {
			fmt.Fprintln(os.Stderr, "kvbench:", err)
			os.Exit(1)
		}
		res, err := kvstore.BenchTrace(st, tr, 128, *ops, *workers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kvbench:", err)
			os.Exit(1)
		}
		printResult(fmt.Sprintf("replay of %s (%d ops)", tr.Name, tr.Len()), res)
		return
	}

	if !*tune {
		res, err := kvstore.BenchConfig(kvstore.Space().Default(), wl, *keys, *ops, *workers, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kvbench:", err)
			os.Exit(1)
		}
		printResult("default config", res)
		return
	}

	obj := func(cfg space.Config) float64 {
		res, err := kvstore.BenchConfig(cfg, wl, *keys, *ops, *workers, *seed)
		if err != nil {
			return 0
		}
		return -res.OpsPerSec
	}
	opt, err := core.NewOptimizer(*optName, kvstore.Space(), rand.New(rand.NewSource(*seed)))
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvbench:", err)
		os.Exit(1)
	}
	fmt.Printf("tuning kvstore on %s: %d trials x %d ops x %d workers...\n",
		wl.Name, *budget, *ops, *workers)
	rep, err := trial.Run(trial.NewStudy(opt, nil), &trial.FuncEnv{Sp: kvstore.Space(), F: obj}, trial.Options{Budget: *budget})
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvbench:", err)
		os.Exit(1)
	}
	best, val := rep.BestConfig, rep.BestValue
	fmt.Printf("\nbest throughput: %.0f ops/sec\n\nbest configuration:\n", -val)
	names := make([]string, 0, len(best))
	for k := range best {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-16s = %v\n", k, best[k])
	}
	// Confirm against the default.
	defRes, err := kvstore.BenchConfig(kvstore.Space().Default(), wl, *keys, *ops, *workers, *seed)
	if err == nil {
		fmt.Printf("\ndefault: %.0f ops/sec  ->  tuned: %.0f ops/sec  (%.1fx)\n",
			defRes.OpsPerSec, -val, -val/defRes.OpsPerSec)
	}
}

func printResult(name string, r kvstore.BenchResult) {
	fmt.Printf("%s:\n  ops        %d\n  elapsed    %v\n  throughput %.0f ops/sec\n  p50        %v\n  p95        %v\n  hit rate   %.3f\n",
		name, r.Ops, r.Elapsed.Round(1e6), r.OpsPerSec, r.P50, r.P95, r.HitRate)
}
