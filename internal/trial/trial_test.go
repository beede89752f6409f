package trial

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"autotune/internal/optimizer"
	"autotune/internal/simsys"
	"autotune/internal/space"
	"autotune/internal/workload"
)

func quadEnv() *FuncEnv {
	return &FuncEnv{
		Sp: space.MustNew(space.Float("x", 0, 1)),
		F:  func(c space.Config) float64 { return (c.Float("x") - 0.6) * (c.Float("x") - 0.6) },
	}
}

func TestRunSequential(t *testing.T) {
	env := quadEnv()
	o := optimizer.NewRandom(env.Space(), rand.New(rand.NewSource(1)))
	rep, err := Run(NewStudy(o, nil), env, Options{Budget: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trials) != 50 {
		t.Fatalf("trials = %d", len(rep.Trials))
	}
	if rep.BestValue > 0.05 {
		t.Fatalf("best = %v", rep.BestValue)
	}
	if rep.TotalCostSeconds != rep.WallClockSeconds {
		t.Fatal("sequential wall clock should equal total cost")
	}
	// Trial IDs sequential.
	for i, tr := range rep.Trials {
		if tr.ID != i {
			t.Fatalf("trial %d has id %d", i, tr.ID)
		}
	}
}

func TestRunParallelWallClock(t *testing.T) {
	env := quadEnv()
	env.CostPerTrial = 10
	o := optimizer.NewRandom(env.Space(), rand.New(rand.NewSource(2)))
	rep, err := Run(NewStudy(o, nil), env, Options{Budget: 40, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trials) != 40 {
		t.Fatalf("trials = %d", len(rep.Trials))
	}
	// 40 trials of 10s in batches of 4: wall clock = 10 batches x 10s.
	if math.Abs(rep.WallClockSeconds-100) > 1e-9 {
		t.Fatalf("wall clock = %v, want 100", rep.WallClockSeconds)
	}
	if math.Abs(rep.TotalCostSeconds-400) > 1e-9 {
		t.Fatalf("total = %v, want 400", rep.TotalCostSeconds)
	}
}

func TestRunValidation(t *testing.T) {
	env := quadEnv()
	o := optimizer.NewRandom(env.Space(), rand.New(rand.NewSource(3)))
	if _, err := Run(NewStudy(o, nil), env, Options{}); err == nil {
		t.Fatal("budget 0 should error")
	}
}

func TestRunGridExhaustion(t *testing.T) {
	env := quadEnv()
	o := optimizer.NewGridLevels(env.Space(), 5)
	rep, err := Run(NewStudy(o, nil), env, Options{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trials) != 5 {
		t.Fatalf("trials = %d, want 5 (grid size)", len(rep.Trials))
	}
}

// toldOpt wraps a strategy and keeps every value it was told, which the
// strategy itself need not.
type toldOpt struct {
	optimizer.Optimizer
	values []float64
}

func (o *toldOpt) Observe(cfg space.Config, v float64) error {
	o.values = append(o.values, v)
	return o.Optimizer.Observe(cfg, v)
}

type crashyEnv struct {
	sp *space.Space
}

func (e *crashyEnv) Space() *space.Space { return e.sp }

func (e *crashyEnv) Run(_ context.Context, cfg space.Config, fid float64) (Result, error) {
	x := cfg.Float("x")
	if x > 0.8 {
		return Result{CostSeconds: 0.1}, ErrCrash
	}
	return Result{Value: math.Abs(x - 0.5), CostSeconds: 1}, nil
}

func TestRunCrashHandling(t *testing.T) {
	env := &crashyEnv{sp: space.MustNew(space.Float("x", 0, 1))}
	o := &toldOpt{Optimizer: optimizer.NewRandom(env.Space(), rand.New(rand.NewSource(4)))}
	rep, err := Run(NewStudy(o, nil), env, Options{Budget: 60})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes == 0 {
		t.Fatal("expected some crashes")
	}
	// Crashed trials must not become the best.
	if rep.BestConfig.Float("x") > 0.8 {
		t.Fatalf("best config is in the crash region: %v", rep.BestConfig)
	}
	// Observations for crashes are finite penalties.
	for _, v := range o.values {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatal("crash observed as non-finite")
		}
	}
	// Crash records flagged.
	found := false
	for _, tr := range rep.Trials {
		if tr.Crashed {
			found = true
			if tr.Value <= 0.5 {
				t.Fatalf("crash penalty %v should exceed worst finite", tr.Value)
			}
		}
	}
	if !found {
		t.Fatal("no crash records")
	}
}

func TestSystemEnvRuns(t *testing.T) {
	env := &SystemEnv{
		Sys: simsys.NewDBMS(simsys.MediumVM()),
		WL:  workload.TPCC(),
	}
	o := optimizer.NewRandom(env.Space(), rand.New(rand.NewSource(5)))
	rep, err := Run(NewStudy(o, nil), env, Options{Budget: 20})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BestValue <= 0 {
		t.Fatalf("best latency = %v", rep.BestValue)
	}
	// Metrics recorded.
	last := rep.Trials[len(rep.Trials)-1]
	if last.CostSeconds != 300 {
		t.Fatalf("cost = %v, want base duration 300", last.CostSeconds)
	}
}

func TestSystemEnvFidelityCost(t *testing.T) {
	env := &SystemEnv{
		Sys: simsys.NewDBMS(simsys.MediumVM()),
		WL:  workload.TPCC(),
	}
	r, err := env.Run(context.Background(), env.Space().Default(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.CostSeconds-30) > 1e-9 {
		t.Fatalf("cost = %v, want 30", r.CostSeconds)
	}
}

func TestEarlyAbortSavesCost(t *testing.T) {
	mk := func(margin float64) Report {
		env := &SystemEnv{
			Sys: simsys.NewDBMS(simsys.MediumVM()),
			WL:  workload.TPCH(1),
		}
		o := optimizer.NewRandom(env.Space(), rand.New(rand.NewSource(6)))
		rep, err := Run(NewStudy(o, nil), env, Options{Budget: 30, AbortMargin: margin})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	withAbort := mk(0.2)
	without := mk(0)
	if withAbort.Aborts == 0 {
		t.Fatal("expected aborted trials")
	}
	if !(withAbort.TotalCostSeconds < without.TotalCostSeconds) {
		t.Fatalf("abort cost %v should be below full cost %v",
			withAbort.TotalCostSeconds, without.TotalCostSeconds)
	}
	// Quality shouldn't collapse: same best value (both found it before
	// aborts matter) or close.
	if withAbort.BestValue > without.BestValue*1.5 {
		t.Fatalf("abort best %v much worse than full %v", withAbort.BestValue, without.BestValue)
	}
}

func TestReportSaveLoad(t *testing.T) {
	env := quadEnv()
	o := optimizer.NewRandom(env.Space(), rand.New(rand.NewSource(7)))
	rep, err := Run(NewStudy(o, nil), env, Options{Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := rep.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded := readReport(t, path)
	if len(loaded.Trials) != 10 || loaded.BestValue != rep.BestValue {
		t.Fatalf("round trip mismatch: %+v", loaded)
	}
}

func TestBestOverTimeMonotone(t *testing.T) {
	env := quadEnv()
	o := optimizer.NewRandom(env.Space(), rand.New(rand.NewSource(8)))
	rep, err := Run(NewStudy(o, nil), env, Options{Budget: 30})
	if err != nil {
		t.Fatal(err)
	}
	curve := rep.BestOverTime()
	if len(curve) != 30 {
		t.Fatalf("curve len = %d", len(curve))
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] > curve[i-1] {
			t.Fatal("best-over-time must be non-increasing")
		}
	}
	if curve[len(curve)-1] != rep.BestValue {
		t.Fatal("final curve point should equal best")
	}
}

func TestAllSuccessfulTrialsFail(t *testing.T) {
	env := &crashyEnv{sp: space.MustNew(space.Float("x", 0.9, 1))} // always crashes
	o := optimizer.NewRandom(env.Space(), rand.New(rand.NewSource(9)))
	if _, err := Run(NewStudy(o, nil), env, Options{Budget: 5}); err == nil {
		t.Fatal("all-crash run should error")
	}
}

func TestErrCrashAlias(t *testing.T) {
	if !errors.Is(ErrCrash, simsys.ErrCrash) {
		t.Fatal("ErrCrash should alias simsys.ErrCrash")
	}
}

// TestOptionsFidelity: 0 is the unset value and defaults to 1; anything
// else outside (0, 1] is an error, NaN included, which fails every
// comparison and would otherwise run a whole study on NaN.
func TestOptionsFidelity(t *testing.T) {
	for _, tc := range []struct {
		in, want float64
		bad      bool
	}{
		{in: math.NaN(), bad: true},
		{in: -0.5, bad: true},
		{in: 1.5, bad: true},
		{in: 0, want: 1},
		{in: 0.5, want: 0.5},
	} {
		o, err := Options{Budget: 1, Fidelity: tc.in}.withDefaults()
		if tc.bad {
			if err == nil {
				t.Errorf("fidelity %v: no error", tc.in)
			}
			continue
		}
		if err != nil || o.Fidelity != tc.want {
			t.Errorf("fidelity %v: got %v, %v; want %v", tc.in, o.Fidelity, err, tc.want)
		}
	}
}
