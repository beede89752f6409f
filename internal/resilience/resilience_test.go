package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"autotune/internal/cloud"
	"autotune/internal/optimizer"
	"autotune/internal/space"
	"autotune/internal/trial"
)

func noSleep(context.Context, time.Duration) {}

func quadEnv() *trial.FuncEnv {
	return &trial.FuncEnv{
		Sp: space.MustNew(space.Float("x", 0, 1)),
		F:  func(c space.Config) float64 { return (c.Float("x") - 0.6) * (c.Float("x") - 0.6) },
	}
}

// scriptedEnv fails the first failN calls with the given error.
type scriptedEnv struct {
	sp    *space.Space
	calls atomic.Int64
	failN int64
	err   error
}

func (e *scriptedEnv) Space() *space.Space { return e.sp }

func (e *scriptedEnv) Run(ctx context.Context, cfg space.Config, fid float64) (trial.Result, error) {
	if err := ctx.Err(); err != nil {
		return trial.Result{}, err
	}
	n := e.calls.Add(1)
	if n <= e.failN {
		return trial.Result{CostSeconds: 0.5}, e.err
	}
	return trial.Result{Value: 1, CostSeconds: 2}, nil
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Factor: 2, Max: time.Second}
	prev := time.Duration(0)
	for i := 0; i < 4; i++ {
		d := b.Delay(i, nil)
		if d <= prev {
			t.Fatalf("delay %d = %v not growing", i, d)
		}
		prev = d
	}
	if d := b.Delay(20, nil); d != time.Second {
		t.Fatalf("uncapped delay %v", d)
	}
	// Jitter stays within ±20% of the deterministic delay.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		d := b.Delay(2, rng)
		base := b.Delay(2, nil)
		lo, hi := time.Duration(float64(base)*0.8), time.Duration(float64(base)*1.2)
		if d < lo || d > hi {
			t.Fatalf("jittered delay %v outside [%v, %v]", d, lo, hi)
		}
	}
}

func TestRetryRecoversTransientFailures(t *testing.T) {
	inner := &scriptedEnv{sp: quadEnv().Sp, failN: 2, err: fmt.Errorf("flake: %w", ErrTransient)}
	var slept []time.Duration
	env := Wrap(inner, Options{
		Retries: 3,
		Backoff: Backoff{Base: time.Second, Jitter: 1e-9},
		Sleep:   func(_ context.Context, d time.Duration) { slept = append(slept, d) },
	})
	res, err := env.Run(context.Background(), env.Space().Default(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if inner.calls.Load() != 3 {
		t.Fatalf("attempts = %d, want 3", inner.calls.Load())
	}
	if len(slept) != 2 {
		t.Fatalf("backoffs = %d, want 2", len(slept))
	}
	if !(slept[1] > slept[0]) {
		t.Fatalf("backoff not exponential: %v", slept)
	}
	// Cost is honest: two failed attempts + backoff delays + success.
	want := 0.5 + 0.5 + 2 + slept[0].Seconds() + slept[1].Seconds()
	if diff := res.CostSeconds - want; diff > 0.01 || diff < -0.01 {
		t.Fatalf("cost %v, want ~%v", res.CostSeconds, want)
	}
	if s := env.Stats(); s.Retries != 2 || s.Attempts != 3 {
		t.Fatalf("stats %+v", s)
	}
}

func TestRetryGivesUpAfterBudget(t *testing.T) {
	inner := &scriptedEnv{sp: quadEnv().Sp, failN: 100, err: fmt.Errorf("flake: %w", ErrTransient)}
	env := Wrap(inner, Options{Retries: 2, Sleep: noSleep})
	_, err := env.Run(context.Background(), env.Space().Default(), 1)
	if !IsTransient(err) {
		t.Fatalf("want transient error, got %v", err)
	}
	if inner.calls.Load() != 3 {
		t.Fatalf("attempts = %d, want 3 (1 + 2 retries)", inner.calls.Load())
	}
}

func TestHardCrashIsNotRetried(t *testing.T) {
	inner := &scriptedEnv{sp: quadEnv().Sp, failN: 100, err: trial.ErrCrash}
	env := Wrap(inner, Options{Retries: 5, Sleep: noSleep})
	_, err := env.Run(context.Background(), env.Space().Default(), 1)
	if !errors.Is(err, trial.ErrCrash) {
		t.Fatalf("want crash, got %v", err)
	}
	if inner.calls.Load() != 1 {
		t.Fatalf("crash retried %d times", inner.calls.Load()-1)
	}
}

func TestDeadlineKillsHangingTrial(t *testing.T) {
	inj := NewInjector(quadEnv(), InjectorOptions{HangProb: 1, HangFor: 10 * time.Second, Seed: 1})
	env := Wrap(inj, Options{TrialTimeout: 20 * time.Millisecond, Sleep: noSleep})
	start := time.Now()
	_, err := env.Run(context.Background(), env.Space().Default(), 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline exceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hang not bounded by deadline: %v", elapsed)
	}
	if env.Stats().Timeouts != 1 {
		t.Fatalf("stats %+v", env.Stats())
	}
}

func TestHangWithoutDeadlineGivesUpTransiently(t *testing.T) {
	inj := NewInjector(quadEnv(), InjectorOptions{HangProb: 1, HangFor: 5 * time.Millisecond, Seed: 1})
	_, err := inj.Run(context.Background(), inj.Space().Default(), 1)
	if !IsTransient(err) {
		t.Fatalf("deadline-less hang should surface transient, got %v", err)
	}
}

// crashRegionEnv hard-crashes for x > 0.8 (a cliff region).
type crashRegionEnv struct {
	sp    *space.Space
	calls atomic.Int64
}

func (e *crashRegionEnv) Space() *space.Space { return e.sp }

func (e *crashRegionEnv) Run(ctx context.Context, cfg space.Config, fid float64) (trial.Result, error) {
	e.calls.Add(1)
	if cfg.Float("x") > 0.8 {
		return trial.Result{CostSeconds: 10}, trial.ErrCrash
	}
	return trial.Result{Value: cfg.Float("x"), CostSeconds: 1}, nil
}

func TestBreakerQuarantinesCrashRegion(t *testing.T) {
	inner := &crashRegionEnv{sp: space.MustNew(space.Float("x", 0, 1))}
	br := NewBreaker()
	br.FailThreshold = 2
	br.Cooldown = 100
	env := Wrap(inner, Options{Breaker: br, Sleep: noSleep})
	bad := space.Config{"x": 0.95}
	good := space.Config{"x": 0.1}
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		if _, err := env.Run(ctx, bad, 1); !errors.Is(err, trial.ErrCrash) {
			t.Fatalf("want crash, got %v", err)
		}
	}
	before := inner.calls.Load()
	_, err := env.Run(ctx, bad, 1)
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("want quarantine, got %v", err)
	}
	if inner.calls.Load() != before {
		t.Fatal("quarantined trial must not touch the environment")
	}
	if env.Stats().Quarantined != 1 || br.Trips() == 0 || br.OpenRegions() != 1 {
		t.Fatalf("stats %+v, trips %d, open %d", env.Stats(), br.Trips(), br.OpenRegions())
	}
	// Other regions stay runnable.
	if _, err := env.Run(ctx, good, 1); err != nil {
		t.Fatalf("good region blocked: %v", err)
	}
}

func TestBreakerReopensAfterCooldown(t *testing.T) {
	br := NewBreaker()
	br.FailThreshold = 1
	br.Cooldown = 3
	sp := space.MustNew(space.Float("x", 0, 1))
	cfg := space.Config{"x": 0.95}
	if !br.Allow(sp, cfg) {
		t.Fatal("fresh region should be allowed")
	}
	br.RecordFailure(sp, cfg)
	if br.Allow(sp, cfg) {
		t.Fatal("tripped region should be quarantined")
	}
	for i := 0; i < 3; i++ {
		br.Allow(sp, cfg) // tick the clock past the cooldown
	}
	if !br.Allow(sp, cfg) {
		t.Fatal("region should reopen half-open after cooldown")
	}
	// Half-open: a single failure re-trips.
	br.RecordFailure(sp, cfg)
	if br.Allow(sp, cfg) {
		t.Fatal("half-open failure should re-trip immediately")
	}
	// A success closes the circuit for good.
	br.RecordSuccess(sp, cfg)
	if !br.Allow(sp, cfg) {
		t.Fatal("success should close the circuit")
	}
}

func TestFlakyHostQuarantine(t *testing.T) {
	hosts := []cloud.HostProfile{
		{Mult: 1},
		{Mult: 1, Flaky: true, FailRate: 1}, // always fails
		{Mult: 1},
	}
	br := NewBreaker()
	br.FailThreshold = 2
	br.Cooldown = 1000
	inj := NewInjector(quadEnv(), InjectorOptions{Hosts: hosts, Breaker: br, Seed: 2})
	env := Wrap(inj, Options{Retries: 3, Breaker: br, Sleep: noSleep})
	ctx := context.Background()
	for i := 0; i < 12; i++ {
		if _, err := env.Run(ctx, env.Space().Default(), 1); err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
	}
	if br.OpenHosts() != 1 {
		t.Fatalf("open hosts = %d, want 1", br.OpenHosts())
	}
	// Once quarantined the flaky host stops being scheduled: fault count
	// freezes.
	faults := inj.Stats().HostFaults
	for i := 0; i < 12; i++ {
		if _, err := env.Run(ctx, env.Space().Default(), 1); err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
	}
	if got := inj.Stats().HostFaults; got != faults {
		t.Fatalf("quarantined host still faulting: %d -> %d", faults, got)
	}
}

func TestInjectorDeterministicBySeed(t *testing.T) {
	mk := func() InjectorStats {
		inj := NewInjector(quadEnv(), InjectorOptions{
			TransientProb: 0.3, CrashProb: 0.1, StragglerProb: 0.2, CorruptProb: 0.2, Seed: 7,
		})
		for i := 0; i < 50; i++ {
			_, _ = inj.Run(context.Background(), inj.Space().Default(), 1)
		}
		return inj.Stats()
	}
	a, b := mk(), mk()
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	if a.Transients == 0 || a.Crashes == 0 || a.Stragglers == 0 || a.Corruptions == 0 {
		t.Fatalf("expected all fault kinds at these rates: %+v", a)
	}
}

// TestFaultInjectedRunMatchesFaultFreeQuality is the acceptance check: a
// tuning run over a fault-injected environment (>20% transient failures
// plus hangs) must land in the same best-config quality envelope as the
// fault-free run.
func TestFaultInjectedRunMatchesFaultFreeQuality(t *testing.T) {
	clean := quadEnv()
	o1 := optimizer.NewRandom(clean.Space(), rand.New(rand.NewSource(10)))
	cleanRep, err := trial.Run(trial.NewStudy(o1, nil), clean, trial.Options{Budget: 60})
	if err != nil {
		t.Fatal(err)
	}

	inj := NewInjector(quadEnv(), InjectorOptions{
		TransientProb: 0.25,
		HangProb:      0.05,
		HangFor:       2 * time.Millisecond,
		StragglerProb: 0.1,
		Seed:          11,
	})
	env := Wrap(inj, Options{
		Retries:      6,
		TrialTimeout: time.Second,
		Backoff:      Backoff{Base: time.Millisecond},
		Sleep:        noSleep,
	})
	o2 := optimizer.NewRandom(env.Space(), rand.New(rand.NewSource(10)))
	rep, err := trial.Run(trial.NewStudy(o2, nil), env, trial.Options{Budget: 60})
	if err != nil {
		t.Fatal(err)
	}
	if inj.Stats().Transients == 0 {
		t.Fatal("injector produced no transient faults")
	}
	if len(rep.Trials) != 60 {
		t.Fatalf("lost trials: %d", len(rep.Trials))
	}
	// Same envelope: with every transient retried away, the faulty run
	// should find an equally good optimum (quad min is 0; 0.05 is the
	// envelope random search reaches with this budget).
	if cleanRep.BestValue > 0.05 {
		t.Fatalf("clean best %v out of envelope", cleanRep.BestValue)
	}
	if rep.BestValue > 0.05 {
		t.Fatalf("faulty best %v out of envelope (clean %v)", rep.BestValue, cleanRep.BestValue)
	}
}

func TestWrapPassesThroughAbortable(t *testing.T) {
	inner := quadEnv()
	env := Wrap(inner, Options{Sleep: noSleep})
	// FuncEnv is not Abortable: RunAbortable must fall back to Run.
	res, aborted, err := env.RunAbortable(context.Background(), inner.Sp.Default(), 1, 0.001)
	if err != nil || aborted {
		t.Fatalf("fallback: %v aborted=%v", err, aborted)
	}
	if res.CostSeconds <= 0 {
		t.Fatal("no cost recorded")
	}
}
