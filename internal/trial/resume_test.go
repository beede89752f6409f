package trial

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"autotune/internal/optimizer"
	"autotune/internal/simsys"
	"autotune/internal/space"
	"autotune/internal/workload"
)

// countingEnv is a quadratic objective that counts Run invocations and can
// fail transiently, hang (deadline-style), or call a hook per trial.
type countingEnv struct {
	sp        *space.Space
	runs      atomic.Int64
	failures  atomic.Int64
	failEvery int64 // every n-th run crashes (0 = never)
	onRun     func(n int64) error
}

func newCountingEnv() *countingEnv {
	return &countingEnv{sp: space.MustNew(space.Float("x", 0, 1))}
}

func (e *countingEnv) Space() *space.Space { return e.sp }

func (e *countingEnv) Run(ctx context.Context, cfg space.Config, fid float64) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	n := e.runs.Add(1)
	if e.onRun != nil {
		if err := e.onRun(n); err != nil {
			return Result{CostSeconds: 0.1}, err
		}
	}
	if e.failEvery > 0 && n%e.failEvery == 0 {
		e.failures.Add(1)
		return Result{CostSeconds: 0.1}, ErrCrash
	}
	x := cfg.Float("x")
	return Result{Value: (x - 0.6) * (x - 0.6), CostSeconds: 1}, nil
}

func TestResumeFromCompleteCheckpointRunsNothing(t *testing.T) {
	env := newCountingEnv()
	store := t.TempDir()
	opts := Options{Budget: 25}
	o1 := optimizer.NewRandom(env.sp, rand.New(rand.NewSource(1)))
	rep, err := runJournaled(context.Background(), store, "", o1, env, opts)
	if err != nil {
		t.Fatal(err)
	}
	ran := env.runs.Load()
	if ran != 25 {
		t.Fatalf("env ran %d times, want 25", ran)
	}
	// Resume with a fresh optimizer: the store covers the full budget, so
	// the environment must not be touched.
	o2 := &toldOpt{Optimizer: optimizer.NewRandom(env.sp, rand.New(rand.NewSource(99)))}
	rep2, err := runJournaled(context.Background(), store, "", o2, env, opts)
	if err != nil {
		t.Fatal(err)
	}
	if env.runs.Load() != ran {
		t.Fatalf("resume re-ran trials: %d -> %d", ran, env.runs.Load())
	}
	if rep2.Resumed != 25 || len(rep2.Trials) != 25 {
		t.Fatalf("resumed=%d trials=%d", rep2.Resumed, len(rep2.Trials))
	}
	if rep2.BestValue != rep.BestValue {
		t.Fatalf("best mismatch: %v vs %v", rep2.BestValue, rep.BestValue)
	}
	// The replayed history landed in the fresh optimizer.
	if len(o2.values) != 25 {
		t.Fatalf("optimizer observed %d, want 25", len(o2.values))
	}
	if bv := slices.Min(o2.values); bv != rep.BestValue {
		t.Fatalf("optimizer best %v, want %v", bv, rep.BestValue)
	}
}

func TestResumeAfterKillContinuesWithoutRerun(t *testing.T) {
	env := newCountingEnv()
	env.failEvery = 5
	store := t.TempDir()
	opts := Options{Budget: 30}

	// "Kill" the process after 12 trials by cancelling the context.
	ctx, cancel := context.WithCancel(context.Background())
	env.onRun = func(n int64) error {
		if n >= 12 {
			cancel()
		}
		return nil
	}
	o1 := optimizer.NewRandom(env.sp, rand.New(rand.NewSource(2)))
	_, err := runJournaled(ctx, store, "", o1, env, opts)
	if err == nil {
		t.Fatal("cancelled run should report the context error")
	}
	partial, err := readJournal(store, "", env.sp)
	if err != nil {
		t.Fatal(err)
	}
	done := len(partial)
	if done == 0 || done >= 30 {
		t.Fatalf("store has %d trials, want partial progress", done)
	}

	// Resume with a fresh optimizer and finish the budget.
	env.onRun = nil
	before := env.runs.Load()
	o2 := optimizer.NewRandom(env.sp, rand.New(rand.NewSource(3)))
	rep, err := runJournaled(context.Background(), store, "", o2, env, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trials) != 30 {
		t.Fatalf("trials = %d, want 30", len(rep.Trials))
	}
	if rep.Resumed != done {
		t.Fatalf("resumed = %d, want %d", rep.Resumed, done)
	}
	if got := env.runs.Load() - before; got != int64(30-done) {
		t.Fatalf("resume ran %d trials, want %d", got, 30-done)
	}
	// IDs are sequential with no duplicates across the kill boundary.
	for i, tr := range rep.Trials {
		if tr.ID != i {
			t.Fatalf("trial %d has id %d", i, tr.ID)
		}
	}
	// The final store matches the completed report.
	final, err := readJournal(store, "", env.sp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(final, rep.Trials) {
		t.Fatalf("final store diverges from the report: %d trials vs %d", len(final), len(rep.Trials))
	}
	if best := (Report{Trials: final}).BestOverTime(); best[len(best)-1] != rep.BestValue {
		t.Fatalf("final store's best %v, report's %v", best[len(best)-1], rep.BestValue)
	}
}

// TestResumedBestConfigIsTyped: a resumed run hands back configs typed by
// the space — an int knob as int64, not the float64 JSON decodes it to —
// so its best config validates and re-runs like an uninterrupted run's.
func TestResumedBestConfigIsTyped(t *testing.T) {
	env := &SystemEnv{Sys: simsys.NewDBMS(simsys.MediumVM()), WL: workload.TPCC()}
	store := t.TempDir()
	opts := Options{Budget: 10}
	o1 := optimizer.NewRandom(env.Space(), rand.New(rand.NewSource(1)))
	want, err := runJournaled(context.Background(), store, "", o1, env, opts)
	if err != nil {
		t.Fatal(err)
	}
	o2 := optimizer.NewRandom(env.Space(), rand.New(rand.NewSource(2)))
	rep, err := runJournaled(context.Background(), store, "", o2, env, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != opts.Budget {
		t.Fatalf("resumed %d trials, want %d", rep.Resumed, opts.Budget)
	}
	if !reflect.DeepEqual(rep.BestConfig, want.BestConfig) {
		t.Fatalf("resumed best config %#v, uninterrupted %#v", rep.BestConfig, want.BestConfig)
	}
	if err := env.Space().Validate(rep.BestConfig); err != nil {
		t.Fatalf("resumed best config does not validate: %v", err)
	}
	res, err := env.Run(context.Background(), rep.BestConfig, 1)
	if err != nil {
		t.Fatalf("re-running the resumed best config: %v", err)
	}
	if res.Value != rep.BestValue {
		t.Fatalf("re-run scored %v, the report %v", res.Value, rep.BestValue)
	}
}

func TestSaveIsAtomicAndLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.json")
	rep := Report{BestValue: 1, Trials: []TrialRecord{{ID: 0, Value: 1}}}
	for i := 0; i < 3; i++ {
		if err := rep.Save(path); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("stale temp file %s", e.Name())
		}
	}
	if got := readReport(t, path); len(got.Trials) != 1 {
		t.Fatalf("saved report reads back %d trials, want 1", len(got.Trials))
	}
	if err := rep.Save(filepath.Join(dir, "missing", "report.json")); err == nil {
		t.Fatal("saving into a missing directory should error")
	}
}

// TestRunParallelFlakyNoLostTrials exercises the batch path under the race
// detector with a crashing environment: no trial may be lost, accounting
// must balance, and best-so-far must be monotone.
func TestRunParallelFlakyNoLostTrials(t *testing.T) {
	env := newCountingEnv()
	env.failEvery = 3 // a third of trials crash
	o := &toldOpt{Optimizer: optimizer.NewRandom(env.sp, rand.New(rand.NewSource(4)))}
	rep, err := Run(NewStudy(o, nil), env, Options{Budget: 64, Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trials) != 64 {
		t.Fatalf("lost trials: %d/64", len(rep.Trials))
	}
	if int64(rep.Crashes) != env.failures.Load() {
		t.Fatalf("crashes %d != env failures %d", rep.Crashes, env.failures.Load())
	}
	var total float64
	seen := map[int]bool{}
	for _, tr := range rep.Trials {
		if seen[tr.ID] {
			t.Fatalf("duplicate trial id %d", tr.ID)
		}
		seen[tr.ID] = true
		total += tr.CostSeconds
	}
	if math.Abs(total-rep.TotalCostSeconds) > 1e-9 {
		t.Fatalf("cost accounting off: %v vs %v", total, rep.TotalCostSeconds)
	}
	curve := rep.BestOverTime()
	for i := 1; i < len(curve); i++ {
		if curve[i] > curve[i-1] {
			t.Fatal("best-over-time must be non-increasing")
		}
	}
	if curve[len(curve)-1] != rep.BestValue {
		t.Fatal("final curve point should equal best")
	}
	if len(o.values) != 64 {
		t.Fatalf("optimizer observed %d, want 64", len(o.values))
	}
}

// timeoutEnv times out (deadline-style) whenever fidelity exceeds a
// threshold — a benchmark too slow for its deadline until degraded.
type timeoutEnv struct {
	sp        *space.Space
	threshold float64
}

func (e *timeoutEnv) Space() *space.Space { return e.sp }

func (e *timeoutEnv) Run(ctx context.Context, cfg space.Config, fid float64) (Result, error) {
	if fid > e.threshold {
		return Result{CostSeconds: 5}, fmt.Errorf("deadline: %w", context.DeadlineExceeded)
	}
	return Result{Value: cfg.Float("x"), CostSeconds: fid}, nil
}

func TestFidelityDegradesAfterTimeouts(t *testing.T) {
	env := &timeoutEnv{sp: space.MustNew(space.Float("x", 0, 1)), threshold: 0.3}
	o := optimizer.NewRandom(env.sp, rand.New(rand.NewSource(5)))
	rep, err := Run(NewStudy(o, nil), env, Options{Budget: 10, Fidelity: 1, DegradeAfterTimeouts: 1})
	if err != nil {
		t.Fatal(err)
	}
	// fid 1 times out -> 0.5 times out -> 0.25 succeeds.
	if rep.Timeouts != 2 {
		t.Fatalf("timeouts = %d, want 2", rep.Timeouts)
	}
	if rep.Degradations != 2 {
		t.Fatalf("degradations = %d, want 2", rep.Degradations)
	}
	last := rep.Trials[len(rep.Trials)-1]
	if last.Fidelity != 0.25 {
		t.Fatalf("final fidelity = %v, want 0.25", last.Fidelity)
	}
	for _, tr := range rep.Trials {
		if tr.TimedOut && !tr.Crashed {
			t.Fatal("timed-out trials count as crashed")
		}
	}
}

func TestRunContextCancelledBeforeStart(t *testing.T) {
	env := newCountingEnv()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := optimizer.NewRandom(env.sp, rand.New(rand.NewSource(6)))
	_, err := RunContext(ctx, NewStudy(o, nil), env, Options{Budget: 5})
	if err == nil {
		t.Fatal("pre-cancelled context should error")
	}
	if env.runs.Load() != 0 {
		t.Fatal("no trials should run under a cancelled context")
	}
}

func TestResumeRequiresCheckpoint(t *testing.T) {
	env := newCountingEnv()
	o := optimizer.NewRandom(env.sp, rand.New(rand.NewSource(7)))
	// A path that cannot be a store directory: resume must not start over.
	notDir := filepath.Join(t.TempDir(), "nope.json")
	if err := os.WriteFile(notDir, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStudyJournal(notDir, ""); err == nil {
		t.Fatal("opening a store that cannot be opened should error")
	}
	if _, err := runJournaled(context.Background(), notDir, "", o, env, Options{Budget: 5}); err == nil {
		t.Fatal("resume from a store that cannot be opened should error")
	}
	if env.runs.Load() != 0 {
		t.Fatalf("failed resumes ran the environment %d times", env.runs.Load())
	}
}
