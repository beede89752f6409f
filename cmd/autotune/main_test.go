package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func base() cliOptions {
	return cliOptions{
		system: "simdb", wlName: "tpcc", optName: "random", metric: "latency",
		vmSize: "medium", budget: 5, parallel: 1, fidelity: 1, seed: 1,
	}
}

func TestRunAllSystems(t *testing.T) {
	cases := []struct {
		system, wl, metric string
	}{
		{"simdb", "tpcc", "latency"},
		{"simredis", "ycsb-b", "p95"},
		{"simspark", "tpch-sf1", "latency"},
		{"simdb", "ycsb-a", "throughput"},
	}
	for _, c := range cases {
		o := base()
		o.system, o.wlName, o.metric = c.system, c.wl, c.metric
		if err := run(o); err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
	}
}

func TestRunWritesReport(t *testing.T) {
	o := base()
	o.vmSize = "small"
	o.parallel = 2
	o.abortMargin = 0.25
	o.fidelity = 0.5
	o.seed = 2
	o.noise = 0.02
	o.out = filepath.Join(t.TempDir(), "report.json")
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithFaultInjectionAndRetries(t *testing.T) {
	o := base()
	o.budget = 10
	o.faults = 0.3
	o.hangs = 0.05
	o.retries = 5
	o.trialTimeout = 250 * time.Millisecond
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunCheckpointThenResume(t *testing.T) {
	o := base()
	o.budget = 8
	o.store = t.TempDir()
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	// Resume from the completed store: nothing left to run, but the
	// report must be reproduced.
	o.resume = true
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

// captureRun executes run(o) with stdout redirected and returns
// everything it printed.
func captureRun(t *testing.T, o cliOptions) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	runErr := run(o)
	os.Stdout = old
	w.Close()
	out, readErr := io.ReadAll(r)
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if readErr != nil {
		t.Fatal(readErr)
	}
	return string(out)
}

// TestCLIGolden pins the stdout of four invocations to testdata/cli.golden:
// a seeded bo run, the same run on the hedging scheduler with injected
// faults, and a stored run of 20 trials resumed to 40. A change that claims
// "same behaviour" leaves the file untouched; regenerate it with
// `UPDATE=1 go test ./cmd/autotune -run TestCLIGolden` only when a
// behaviour change is the point.
func TestCLIGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden output is pinned on amd64: fused multiply-add changes low bits elsewhere")
	}
	path, err := filepath.Abs(filepath.Join("testdata", "cli.golden"))
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(t.TempDir()) // the resume line prints the store path, so it stays "d"
	bo40 := cliOptions{
		system: "simdb", wlName: "tpcc", optName: "bo", metric: "latency", vmSize: "medium",
		budget: 40, parallel: 1, fidelity: 1, seed: 1, surrogate: "auto",
	}
	hedged := bo40
	hedged.parallel, hedged.sched, hedged.hedge, hedged.faults = 4, true, 0.9, 0.2
	stored := bo40
	stored.budget, stored.store = 20, "d"
	resumed := bo40
	resumed.store, resumed.resume = "d", true
	var got bytes.Buffer
	for _, c := range []struct {
		args string
		o    cliOptions
	}{
		{"-system simdb -optimizer bo -budget 40 -seed 1", bo40},
		{"-system simdb -optimizer bo -budget 40 -seed 1 -parallel 4 -sched -hedge 0.9 -faults 0.2", hedged},
		{"-system simdb -optimizer bo -seed 1 -store d -budget 20", stored},
		{"-system simdb -optimizer bo -seed 1 -store d -budget 40 -resume", resumed},
	} {
		fmt.Fprintf(&got, "$ autotune %s\n%s", c.args, captureRun(t, c.o))
	}
	if os.Getenv("UPDATE") == "1" {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with UPDATE=1): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("CLI output differs from %s:\n--- got\n%s\n--- want\n%s", path, got.Bytes(), want)
	}
}

// TestRunBitwiseDeterministic is the determinism invariant the lint
// suite exists to protect: two runs with the same seed must produce
// byte-identical output, across every optimizer and with measurement
// noise and parallelism turned on. Nothing printed may depend on the
// wall clock, global RNG state, or map iteration order.
func TestRunBitwiseDeterministic(t *testing.T) {
	for _, opt := range []string{"random", "anneal", "genetic", "bo"} {
		o := base()
		o.optName = opt
		o.budget = 8
		o.parallel = 2
		o.noise = 0.05
		o.seed = 42
		first := captureRun(t, o)
		second := captureRun(t, o)
		if first != second {
			t.Fatalf("%s: output differs between identically-seeded runs:\n--- run 1\n%s\n--- run 2\n%s",
				opt, first, second)
		}
		if first == "" {
			t.Fatalf("%s: captured no output", opt)
		}
	}
}

// TestRunParallelGramBitwiseDeterministic pins the parallel-surrogate
// contract: the GP partitions gram rows by index so every matrix element
// has exactly one writer, meaning the worker count must never change a
// single output byte — not merely run-to-run stability, but equality
// across -gp-workers settings.
func TestRunParallelGramBitwiseDeterministic(t *testing.T) {
	outputs := make([]string, 0, 3)
	for _, workers := range []int{1, 2, 4} {
		o := base()
		o.optName = "bo"
		o.budget = 8
		o.parallel = 2
		o.noise = 0.05
		o.seed = 42
		o.gpWorkers = workers
		outputs = append(outputs, captureRun(t, o))
	}
	for i := 1; i < len(outputs); i++ {
		if outputs[i] != outputs[0] {
			t.Fatalf("output with gp-workers=%d differs from gp-workers=1:\n--- 1 worker\n%s\n--- %d workers\n%s",
				[]int{1, 2, 4}[i], outputs[0], []int{1, 2, 4}[i], outputs[i])
		}
	}
	if outputs[0] == "" {
		t.Fatal("captured no output")
	}
}

// TestRunDedupEvals drives the evaluation cache from the CLI and checks
// the stats line appears and the run stays deterministic.
func TestRunDedupEvals(t *testing.T) {
	o := base()
	o.optName = "random"
	o.budget = 8
	o.dedup = true
	first := captureRun(t, o)
	second := captureRun(t, o)
	if first != second {
		t.Fatalf("dedup output differs between identically-seeded runs:\n--- run 1\n%s\n--- run 2\n%s",
			first, second)
	}
	if !strings.Contains(first, "eval cache:") {
		t.Fatalf("eval cache stats line missing from output:\n%s", first)
	}
}

func TestRunValidation(t *testing.T) {
	bad := func(mutate func(*cliOptions)) cliOptions {
		o := base()
		mutate(&o)
		return o
	}
	if err := run(bad(func(o *cliOptions) { o.system = "bogus" })); err == nil {
		t.Fatal("unknown system should error")
	}
	if err := run(bad(func(o *cliOptions) { o.wlName = "bogus" })); err == nil {
		t.Fatal("unknown workload should error")
	}
	if err := run(bad(func(o *cliOptions) { o.optName = "bogus" })); err == nil {
		t.Fatal("unknown optimizer should error")
	}
	if err := run(bad(func(o *cliOptions) { o.metric = "bogus" })); err == nil {
		t.Fatal("unknown metric should error")
	}
	if err := run(bad(func(o *cliOptions) { o.resume = true })); err == nil {
		t.Fatal("resume without a store should error")
	}
	if err := run(bad(func(o *cliOptions) { o.fidelity = math.NaN() })); err == nil {
		t.Fatal("NaN fidelity should error")
	}
	if err := run(bad(func(o *cliOptions) { o.fidelity = 5 })); err == nil {
		t.Fatal("fidelity above 1 should error")
	}
}

// TestRunHedgedBitwiseDeterministic extends the determinism invariant to
// the asynchronous scheduler: hedging, fault injection, parallelism, and
// measurement noise together must still produce byte-identical output
// for identical seeds — the virtual clock evaluates trials in a fixed
// order, so hedge decisions and injector draws are reproducible.
func TestRunHedgedBitwiseDeterministic(t *testing.T) {
	o := base()
	o.optName = "random"
	o.budget = 12
	o.parallel = 4
	o.noise = 0.05
	o.seed = 42
	o.sched = true
	o.hedge = 0.8
	o.faults = 0.2
	first := captureRun(t, o)
	second := captureRun(t, o)
	if first != second {
		t.Fatalf("hedged output differs between identically-seeded runs:\n--- run 1\n%s\n--- run 2\n%s",
			first, second)
	}
	if !strings.Contains(first, "scheduler:") {
		t.Fatalf("scheduler stats line missing from output:\n%s", first)
	}
}

// TestRunStoreThenResume drives the segmented study store end to end
// from the CLI: a run journals into -store, a -resume run replays it
// (re-running nothing), and the store stats line reports the records.
func TestRunStoreThenResume(t *testing.T) {
	o := base()
	o.budget = 8
	o.store = filepath.Join(t.TempDir(), "studies")
	out := captureRun(t, o)
	if !strings.Contains(out, "store: 8 records in 1 studies") {
		t.Fatalf("store stats line missing or wrong:\n%s", out)
	}
	o.resume = true
	out = captureRun(t, o)
	if !strings.Contains(out, "resumed: 8") {
		t.Fatalf("resume did not replay the store:\n%s", out)
	}
}

// TestRunSurrogateTiersBitwiseDeterministic extends the determinism
// invariant to the surrogate tier ladder: every pinned tier, and an auto
// run whose lowered threshold forces a live dense→sparse switch, must
// print byte-identical output across identically-seeded runs, and the
// stats must name the tier that served the run.
func TestRunSurrogateTiersBitwiseDeterministic(t *testing.T) {
	cases := []struct {
		name     string
		surr     string
		denseMax int
		tier     string
	}{
		{"sparse", "sparse", 0, "tier=sparse"},
		{"local", "local", 0, "tier=local"},
		{"forest", "forest", 0, "tier=forest"},
		{"auto-switch", "auto", 6, "tier=sparse"},
	}
	for _, c := range cases {
		o := base()
		o.optName = "bo"
		o.budget = 12
		o.parallel = 2
		o.noise = 0.05
		o.seed = 42
		o.surrogate = c.surr
		o.denseMax = c.denseMax
		first := captureRun(t, o)
		second := captureRun(t, o)
		if first != second {
			t.Fatalf("%s: output differs between identically-seeded runs:\n--- run 1\n%s\n--- run 2\n%s",
				c.name, first, second)
		}
		if !strings.Contains(first, c.tier) {
			t.Fatalf("%s: output does not report %q:\n%s", c.name, c.tier, first)
		}
	}
}

// TestRunSurrogateValidation: unknown tier names and non-BO optimizers
// must fail fast instead of silently tuning with the wrong model.
func TestRunSurrogateValidation(t *testing.T) {
	o := base()
	o.optName = "bo"
	o.surrogate = "kriging"
	if err := run(o); err == nil || !strings.Contains(err.Error(), "surrogate") {
		t.Fatalf("expected unknown-surrogate error, got %v", err)
	}
	o = base()
	o.optName = "random"
	o.surrogate = "forest"
	if err := run(o); err == nil || !strings.Contains(err.Error(), "surrogate") {
		t.Fatalf("expected surrogate/optimizer mismatch error, got %v", err)
	}
}
