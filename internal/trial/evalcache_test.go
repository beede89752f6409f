package trial

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"autotune/internal/optimizer"
	"autotune/internal/sched"
	"autotune/internal/space"
)

// discreteEnv is a tiny categorical objective where optimizers inevitably
// repeat configurations, so the evaluation cache has work to do.
type discreteEnv struct {
	sp    *space.Space
	runs  atomic.Int64
	onRun func(n int64)
}

func newDiscreteEnv(levels ...string) *discreteEnv {
	return &discreteEnv{sp: space.MustNew(space.Categorical("c", levels...))}
}

func (e *discreteEnv) Space() *space.Space { return e.sp }

func (e *discreteEnv) Run(ctx context.Context, cfg space.Config, fid float64) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	n := e.runs.Add(1)
	if e.onRun != nil {
		e.onRun(n)
	}
	return Result{Value: float64(len(cfg.Str("c"))), CostSeconds: 1}, nil
}

// TestDedupEvalsCachesRepeats: over a 3-config space a 30-trial run must
// touch the environment at most 3 times; every other trial is a journal-
// visible cache hit at zero cost.
func TestDedupEvalsCachesRepeats(t *testing.T) {
	env := newDiscreteEnv("a", "bb", "ccc")
	o := optimizer.NewRandom(env.sp, rand.New(rand.NewSource(4)))
	rep, err := Run(NewStudy(o, nil), env, Options{Budget: 30, DedupEvals: true})
	if err != nil {
		t.Fatal(err)
	}
	runs := env.runs.Load()
	if runs > 3 {
		t.Fatalf("environment ran %d times for 3 distinct configs", runs)
	}
	if got, want := rep.CacheHits, 30-int(runs); got != want {
		t.Fatalf("CacheHits = %d, want %d", got, want)
	}
	hitRecords := 0
	for _, tr := range rep.Trials {
		if tr.CacheHit {
			hitRecords++
			if tr.CostSeconds != 0 {
				t.Fatalf("trial %d: cache hit charged %v seconds", tr.ID, tr.CostSeconds)
			}
		}
	}
	if hitRecords != rep.CacheHits {
		t.Fatalf("%d CacheHit records vs CacheHits=%d", hitRecords, rep.CacheHits)
	}
	if rep.TotalCostSeconds != float64(runs) {
		t.Fatalf("TotalCostSeconds = %v, want %v (hits are free)", rep.TotalCostSeconds, float64(runs))
	}
}

// TestDedupEvalsSingleFlightInBatch: duplicates inside one concurrent batch
// must wait for the single leading evaluation, not race the environment.
func TestDedupEvalsSingleFlightInBatch(t *testing.T) {
	env := newDiscreteEnv("only")
	o := optimizer.NewRandom(env.sp, rand.New(rand.NewSource(9)))
	rep, err := Run(NewStudy(o, nil), env, Options{Budget: 8, Parallel: 4, DedupEvals: true})
	if err != nil {
		t.Fatal(err)
	}
	if runs := env.runs.Load(); runs != 1 {
		t.Fatalf("environment ran %d times for 1 distinct config", runs)
	}
	if rep.CacheHits != 7 {
		t.Fatalf("CacheHits = %d, want 7", rep.CacheHits)
	}
}

// TestDedupEvalsKillMidBatchJournalAgrees is the crash-consistency property
// for the cache: cache hits append exactly one WAL record each, so after a
// mid-run kill and a journal resume every (config, fidelity) pair still has
// at most one real measurement — replay and cache agree on trial counts,
// and nothing is double-journaled.
func TestDedupEvalsKillMidBatchJournalAgrees(t *testing.T) {
	wal := t.TempDir()
	opts := Options{
		Budget:     24,
		Parallel:   4,
		Scheduler:  &sched.Options{},
		DedupEvals: true,
	}
	env := newDiscreteEnv("a", "bb", "ccc", "dddd", "eeeee", "ffffff")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	env.onRun = func(n int64) {
		if n == 3 {
			cancel()
		}
	}
	o1 := optimizer.NewRandom(env.sp, rand.New(rand.NewSource(31)))
	rep1, err := runJournaled(ctx, wal, "", o1, env, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(rep1.Trials) == 0 || len(rep1.Trials) >= opts.Budget {
		t.Fatalf("pre-kill trials = %d, want a partial run", len(rep1.Trials))
	}
	recs, err := readJournal(wal, "", env.sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(rep1.Trials) {
		t.Fatalf("journal has %d records, report absorbed %d", len(recs), len(rep1.Trials))
	}
	preHits := 0
	for _, r := range recs {
		if r.CacheHit {
			preHits++
		}
	}
	if preHits != rep1.CacheHits {
		t.Fatalf("journal shows %d cache hits, report counted %d", preHits, rep1.CacheHits)
	}

	env2 := newDiscreteEnv("a", "bb", "ccc", "dddd", "eeeee", "ffffff")
	o2 := optimizer.NewRandom(env2.sp, rand.New(rand.NewSource(32)))
	rep2, err := runJournaled(context.Background(), wal, "", o2, env2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Trials) != opts.Budget {
		t.Fatalf("final trials = %d, want %d", len(rep2.Trials), opts.Budget)
	}
	final, err := readJournal(wal, "", env.sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(final) != opts.Budget {
		t.Fatalf("journal after resume has %d records, want %d", len(final), opts.Budget)
	}
	// Each (config, fidelity) pair has at most ONE real measurement across
	// the whole resumed history: the resume re-warmed the cache from the
	// journal, so pre-kill measurements are reused, never repeated.
	measured := map[string]int{}
	ids := map[int]bool{}
	hits := 0
	for _, r := range final {
		if ids[r.ID] {
			t.Fatalf("trial ID %d journaled twice", r.ID)
		}
		ids[r.ID] = true
		if r.CacheHit {
			hits++
			if r.CostSeconds != 0 {
				t.Fatalf("trial %d: cache hit charged %v seconds", r.ID, r.CostSeconds)
			}
			continue
		}
		if !r.Crashed {
			measured[r.Config.Key()]++
		}
	}
	for key, n := range measured {
		if n > 1 {
			t.Fatalf("config %s measured %d times despite the cache", key, n)
		}
	}
	if hits != rep2.CacheHits {
		t.Fatalf("journal shows %d cache hits, resumed report counted %d", hits, rep2.CacheHits)
	}
	if got, want := env2.runs.Load(), int64(len(measured))-env.runs.Load(); got > want {
		t.Fatalf("resume ran env %d times, want at most %d new measurements", got, want)
	}
}
