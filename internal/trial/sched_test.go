package trial

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"autotune/internal/cloud"
	"autotune/internal/optimizer"
	"autotune/internal/sched"
	"autotune/internal/space"
)

// tenHostFleet is the acceptance-criterion fleet: 10 hosts with 10% of
// them (one) running 10x slower than the rest.
func tenHostFleet() []cloud.HostProfile {
	hosts := make([]cloud.HostProfile, 10)
	for i := range hosts {
		hosts[i] = cloud.HostProfile{Mult: 1}
	}
	hosts[9] = cloud.HostProfile{Mult: 10, Outlier: true}
	return hosts
}

// runFleet runs a fixed budget over the 10%-slow fleet, with hedging on
// or off. Hedging off reproduces barrier semantics on the same fleet:
// every batch waits for its straggler.
func runFleet(t *testing.T, hedge float64) Report {
	t.Helper()
	env := quadEnv()
	o := optimizer.NewRandom(env.Space(), rand.New(rand.NewSource(7)))
	rep, err := Run(NewStudy(o, nil), env, Options{
		Budget:    100,
		Parallel:  10,
		Scheduler: &sched.Options{Hosts: tenHostFleet(), HedgeQuantile: hedge},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trials) != 100 {
		t.Fatalf("trials = %d, want 100", len(rep.Trials))
	}
	return rep
}

func TestSchedStragglerHedgingBeatsBarrier(t *testing.T) {
	barrier := runFleet(t, 0)
	hedged := runFleet(t, 0.8)

	if barrier.Hedges != 0 {
		t.Fatalf("barrier run hedged %d times", barrier.Hedges)
	}
	// Every batch of 10 puts one unit-cost trial on the 10x host, so the
	// barrier path pays 10 simulated seconds per batch.
	if barrier.WallClockSeconds < 99 {
		t.Fatalf("barrier wall clock = %v, want ~100", barrier.WallClockSeconds)
	}
	// Hedging duplicates the straggler onto a fast host once the duration
	// window is primed; only the first (unprimed) batch pays full price.
	if hedged.WallClockSeconds > 0.4*barrier.WallClockSeconds {
		t.Fatalf("hedged wall clock = %v, not measurably below barrier %v",
			hedged.WallClockSeconds, barrier.WallClockSeconds)
	}
	if hedged.Hedges < 5 || hedged.HedgeWins < 5 {
		t.Fatalf("hedges = %d wins = %d, want several of each", hedged.Hedges, hedged.HedgeWins)
	}
	marked := 0
	for _, tr := range hedged.Trials {
		if tr.Hedged {
			marked++
		}
	}
	if marked != hedged.Hedges {
		t.Fatalf("hedged records = %d, stats say %d", marked, hedged.Hedges)
	}
	// The duplicates burned real fleet time: total cost accounts for it.
	if hedged.TotalCostSeconds <= 100 {
		t.Fatalf("hedged total cost = %v, should exceed the 100 trial-seconds", hedged.TotalCostSeconds)
	}
}

func TestSchedHedgedRunDeterministic(t *testing.T) {
	a := runFleet(t, 0.8)
	b := runFleet(t, 0.8)
	if !reflect.DeepEqual(a.Trials, b.Trials) {
		t.Fatal("identically-seeded hedged runs produced different trial logs")
	}
	if a.WallClockSeconds != b.WallClockSeconds || a.TotalCostSeconds != b.TotalCostSeconds {
		t.Fatalf("clock mismatch: wall %v vs %v, total %v vs %v",
			a.WallClockSeconds, b.WallClockSeconds, a.TotalCostSeconds, b.TotalCostSeconds)
	}
	if a.Hedges != b.Hedges || a.HedgeWins != b.HedgeWins {
		t.Fatalf("hedge stats mismatch: %d/%d vs %d/%d", a.Hedges, a.HedgeWins, b.Hedges, b.HedgeWins)
	}
}

func TestSchedKillMidBatchResumesFromJournalExactly(t *testing.T) {
	wal := t.TempDir()
	opts := Options{
		Budget:    20,
		Parallel:  4,
		Scheduler: &sched.Options{},
	}

	// Kill the run in the middle of the second batch: trial 7 cancels the
	// context after it has produced its result, so batch 2 completes
	// trials 5..7 and never starts its fourth.
	env := newCountingEnv()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	env.onRun = func(n int64) error {
		if n == 7 {
			cancel()
		}
		return nil
	}
	o1 := optimizer.NewRandom(env.sp, rand.New(rand.NewSource(21)))
	rep1, err := runJournaled(ctx, wal, "", o1, env, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(rep1.Trials) == 0 || len(rep1.Trials) >= 20 {
		t.Fatalf("pre-kill trials = %d, want a partial run", len(rep1.Trials))
	}

	// The WAL holds exactly the absorbed set: nothing lost, nothing extra.
	recs, err := readJournal(wal, "", env.sp)
	if err != nil {
		t.Fatal(err)
	}
	walIDs := map[int]bool{}
	for _, r := range recs {
		walIDs[r.ID] = true
	}
	if len(recs) != len(rep1.Trials) {
		t.Fatalf("journal has %d records, report absorbed %d", len(recs), len(rep1.Trials))
	}
	for _, tr := range rep1.Trials {
		if !walIDs[tr.ID] {
			t.Fatalf("trial %d absorbed but missing from journal", tr.ID)
		}
	}

	// Resume from the journal alone (no checkpoint was ever written) with
	// a fresh environment and optimizer: the pre-kill set is replayed, not
	// re-run, and the budget completes.
	env2 := newCountingEnv()
	o2 := optimizer.NewRandom(env2.sp, rand.New(rand.NewSource(22)))
	rep2, err := runJournaled(context.Background(), wal, "", o2, env2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Resumed != len(recs) {
		t.Fatalf("resumed = %d, want %d", rep2.Resumed, len(recs))
	}
	if len(rep2.Trials) != 20 {
		t.Fatalf("final trials = %d, want 20", len(rep2.Trials))
	}
	if got, want := env2.runs.Load(), int64(20-len(recs)); got != want {
		t.Fatalf("resume ran env %d times, want %d (journaled trials must not re-run)", got, want)
	}
	seen := map[int]TrialRecord{}
	for _, tr := range rep2.Trials {
		if _, dup := seen[tr.ID]; dup {
			t.Fatalf("trial ID %d duplicated after resume", tr.ID)
		}
		seen[tr.ID] = tr
	}
	// Every journaled trial appears in the final report unchanged.
	for _, r := range recs {
		got, ok := seen[r.ID]
		if !ok {
			t.Fatalf("journaled trial %d lost on resume", r.ID)
		}
		if got.Value != r.Value || got.Config.Key() != r.Config.Key() {
			t.Fatalf("journaled trial %d mutated on resume: %+v vs %+v", r.ID, got, r)
		}
	}
	// The resumed session appended its new trials to the same WAL.
	recs2, err := readJournal(wal, "", env.sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs2) != 20 {
		t.Fatalf("journal after resume has %d records, want 20", len(recs2))
	}
}

// panickyEnv panics (an environment bug, not a benchmark result) for part
// of the space.
type panickyEnv struct{ sp *space.Space }

func (e *panickyEnv) Space() *space.Space { return e.sp }

func (e *panickyEnv) Run(ctx context.Context, cfg space.Config, fid float64) (Result, error) {
	if cfg.Float("x") > 0.8 {
		panic("simulated environment bug")
	}
	return Result{Value: math.Abs(cfg.Float("x") - 0.5), CostSeconds: 1}, nil
}

func TestRunPanicIsolatedAtTrialBoundary(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"sequential", Options{Budget: 60}},
		{"scheduler", Options{Budget: 60, Parallel: 4, Scheduler: &sched.Options{}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := &panickyEnv{sp: space.MustNew(space.Float("x", 0, 1))}
			o := optimizer.NewRandom(env.sp, rand.New(rand.NewSource(4)))
			rep, err := Run(NewStudy(o, nil), env, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Panics == 0 {
				t.Fatal("expected some panicking trials")
			}
			if rep.Panics != rep.Crashes {
				t.Fatalf("panics = %d, crashes = %d: every panic scores as a crash", rep.Panics, rep.Crashes)
			}
			if rep.BestConfig.Float("x") > 0.8 {
				t.Fatalf("best config %v is in the panic region", rep.BestConfig)
			}
			crashed := 0
			for _, tr := range rep.Trials {
				if tr.Crashed {
					crashed++
					if math.IsInf(tr.Value, 0) || math.IsNaN(tr.Value) {
						t.Fatalf("panicked trial %d recorded non-finite value %v", tr.ID, tr.Value)
					}
				}
			}
			if crashed != rep.Panics {
				t.Fatalf("crashed records = %d, panics = %d", crashed, rep.Panics)
			}
		})
	}
}

// TestSoakSchedulerTrialLoop stresses the full loop — hedging, crashes,
// an outlier host, and the WAL — and checks the exactly-once bookkeeping:
// no trial ID lost, duplicated, or absorbed outside its batch.
func TestSoakSchedulerTrialLoop(t *testing.T) {
	env := newCountingEnv()
	env.failEvery = 5
	wal := t.TempDir()
	hosts := []cloud.HostProfile{{Mult: 1}, {Mult: 1}, {Mult: 4, Outlier: true}, {Mult: 1}}
	o := optimizer.NewRandom(env.sp, rand.New(rand.NewSource(11)))
	const budget, parallel = 160, 8
	rep, err := runJournaled(context.Background(), wal, "", o, env, Options{
		Budget:    budget,
		Parallel:  parallel,
		Scheduler: &sched.Options{Hosts: hosts, HedgeQuantile: 0.7, HedgeMinSamples: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trials) != budget {
		t.Fatalf("trials = %d, want %d", len(rep.Trials), budget)
	}
	if rep.Crashes == 0 {
		t.Fatal("fault injection produced no crashes")
	}
	if rep.Hedges == 0 {
		t.Fatal("outlier host produced no hedges")
	}
	seen := map[int]bool{}
	for _, tr := range rep.Trials {
		if seen[tr.ID] {
			t.Fatalf("trial ID %d delivered twice", tr.ID)
		}
		seen[tr.ID] = true
	}
	for id := 0; id < budget; id++ {
		if !seen[id] {
			t.Fatalf("trial ID %d lost", id)
		}
	}
	// Completions may reorder within a batch but never across batches:
	// the loop is batch-synchronous even though absorption is not.
	for i, tr := range rep.Trials {
		if tr.ID/parallel != i/parallel {
			t.Fatalf("trial ID %d absorbed at position %d, outside its batch", tr.ID, i)
		}
	}
	recs, err := readJournal(wal, "", env.sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != budget {
		t.Fatalf("journal has %d records, want %d", len(recs), budget)
	}
}
