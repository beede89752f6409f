// Command benchmark is the repo's benchmark: it builds cmd/autotuned,
// runs it as a subprocess, drives it over loopback HTTP from this single
// load-generator process, prints every metric named in BENCHMARK.json
// with its unit, checks that the daemon's outputs are correct, and exits
// non-zero if a check fails. README.md in this directory is the manual.
//
// Usage (from the repository root):
//
//	go run ./benchmark                          every workload, timed then traced
//	go run ./benchmark -workload bo-study       one workload, tracing off
//	go run ./benchmark -workload restart -trace 1
//	go run ./benchmark -compare a.jsonl b.jsonl
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames)+" (default: all, timed then traced)")
		seed         = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds      = flag.Int("seconds", refSeconds, "run length the operation counts are scaled to")
		trace        = flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
		quick        = flag.Bool("quick", false, "tiny operation counts: a smoke test, not a measurement")
		out          = flag.String("out", "", "append each full result to this file as one JSON line")
		workdir      = flag.String("workdir", ".bench_build", "directory for the daemon binary, stores and the trace file")
		compare      = flag.Bool("compare", false, "compare two result files: -compare A.jsonl B.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two result files")
			os.Exit(2)
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	// One load-generator process on one P; the daemon gets the other
	// cores (see daemonProcs).
	runtime.GOMAXPROCS(1)
	ctx := context.Background()
	opts := options{seed: *seed, seconds: *seconds, quick: *quick, out: *out, workdir: *workdir}
	ok, err := runAll(ctx, opts, *workloadName, *trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// options are the settings shared by every run of one invocation.
type options struct {
	seed    int64
	seconds int
	quick   bool
	out     string
	workdir string
}

// runAll runs one workload in one mode (the driver's call, whose last
// output line is the contract's JSON object) or, with no workload named,
// every workload timed and then traced.
func runAll(ctx context.Context, opts options, name string, trace int) (bool, error) {
	if err := os.MkdirAll(opts.workdir, 0o755); err != nil {
		return false, err
	}
	base, err := filepath.Abs(opts.workdir)
	if err != nil {
		return false, err
	}
	bin, err := buildDaemon(ctx, base)
	if err != nil {
		return false, err
	}
	if name != "" {
		res, err := runOne(ctx, opts, name, trace == 1, bin, base)
		if err != nil {
			return false, err
		}
		line, err := res.contractLine()
		if err != nil {
			return false, err
		}
		fmt.Printf("%s\n", line)
		return res.Correct, nil
	}
	ok := true
	for _, traced := range []bool{false, true} {
		for _, name := range workloadNames {
			res, err := runOne(ctx, opts, name, traced, bin, base)
			if err != nil {
				return false, err
			}
			ok = ok && res.Correct
		}
	}
	return ok, nil
}

// runOne runs one workload once, prints its result and appends it to the
// -out file.
func runOne(ctx context.Context, opts options, name string, traced bool, bin, base string) (*result, error) {
	sz := sizesFor(name, opts.seconds, opts.quick)
	p, err := newPlan(name, opts.seed, sz)
	if err != nil {
		return nil, err
	}
	dir, cleanup, err := runDir(base)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := newResult(defs)
	res.Env = readEnv(dir)
	res.Workload, res.Seed, res.Seconds, res.Trace, res.Sizes = name, opts.seed, opts.seconds, traced, sz
	if traced {
		err = tracedRun(ctx, p, bin, dir, filepath.Join(base, "trace-"+name+".json"), res)
	} else {
		err = timedRun(ctx, p, bin, dir, res)
	}
	if err != nil {
		// A run that could not finish fails the invocation: no result
		// line is printed for it, only what went wrong.
		for _, e := range res.Errors {
			fmt.Fprintln(os.Stderr, "benchmark: request failed:", e)
		}
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res.finish()
	res.print(os.Stdout)
	if opts.out != "" {
		if err := res.appendJSONLine(opts.out); err != nil {
			return nil, err
		}
	}
	return res, nil
}
