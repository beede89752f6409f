// Package trial is the offline tuning loop: it wires an optimizer to an
// Environment (anything that can benchmark a configuration), handles
// crashes, early aborts, fidelity, and parallel trial execution, and
// records a persistent report — the "scheduler + system-specific scripts"
// box from the tutorial's architecture slide.
//
// Trials are cancellable and deadline-bounded: Environment.Run takes a
// context.Context, and RunContext aborts cleanly between batches when the
// context is cancelled. The loop here is a driver — ask, evaluate, impute
// the crash penalty, tell — around the ask/tell core in study.go, which
// the tuning daemon drives over HTTP instead. A Study built over a
// StudyJournal journals every completed trial before the optimizer
// observes it, so a killed session resumes by replaying the journal into
// a fresh Study and running it again, without re-running completed
// trials. Fault-hardening wrappers (retry with backoff, per-trial
// deadlines, quarantine) live in internal/resilience.
package trial

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	"autotune/internal/sched"
	"autotune/internal/simsys"
	"autotune/internal/space"
	"autotune/internal/workload"

	"math/rand"
)

// Result is one benchmark measurement.
type Result struct {
	// Value is the objective (minimized).
	Value float64
	// Metrics holds auxiliary measurements by name.
	Metrics map[string]float64
	// CostSeconds is the (simulated or real) cost of the trial.
	CostSeconds float64
}

// Environment benchmarks configurations.
type Environment interface {
	// Space returns the tunable space.
	Space() *space.Space
	// Run benchmarks cfg at a fidelity in (0, 1]. Implementations should
	// wrap simsys.ErrCrash (or return ErrCrash) for crashed trials, honor
	// ctx cancellation, and return an error wrapping
	// context.DeadlineExceeded for trials killed by a deadline.
	Run(ctx context.Context, cfg space.Config, fidelity float64) (Result, error)
}

// Abortable is implemented by environments supporting early abort: the
// runner passes the threshold above which the trial is pointless, and the
// environment may stop early, returning aborted=true and the partial cost.
type Abortable interface {
	RunAbortable(ctx context.Context, cfg space.Config, fidelity, abortAbove float64) (res Result, aborted bool, err error)
}

// ErrCrash aliases simsys.ErrCrash so callers need not import simsys.
var ErrCrash = simsys.ErrCrash

// ErrPanic aliases sched.ErrPanic: a trial whose Environment panicked is
// recovered at the trial boundary and scored as a crash; the record's
// error wraps this sentinel together with the panic value and stack.
var ErrPanic = sched.ErrPanic

// FuncEnv adapts a plain objective function to Environment.
type FuncEnv struct {
	Sp *space.Space
	F  func(cfg space.Config) float64
	// CostPerTrial is the simulated cost of each trial (default 1).
	CostPerTrial float64
}

// Space implements Environment.
func (e *FuncEnv) Space() *space.Space { return e.Sp }

// Run implements Environment.
func (e *FuncEnv) Run(ctx context.Context, cfg space.Config, fidelity float64) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	cost := e.CostPerTrial
	if cost <= 0 {
		cost = 1
	}
	return Result{Value: e.F(cfg), CostSeconds: cost * math.Max(fidelity, 0.01)}, nil
}

// SystemEnv benchmarks a simulated system (internal/simsys) under a fixed
// workload; the objective is extracted from the metrics.
type SystemEnv struct {
	Sys simsys.System
	WL  workload.Descriptor
	// Objective extracts the score (default LatencyMS).
	Objective func(simsys.Metrics) float64
	// BaseDurationSec is the full-fidelity benchmark duration used as the
	// trial cost (default 300, a 5-minute benchmark).
	BaseDurationSec float64
	// Rng seeds measurement noise; nil runs deterministically. The shared
	// stream is sampled exactly once to derive a base seed; each
	// evaluation then gets its own RNG keyed on (base seed, config,
	// fidelity) — common random numbers — so noise is independent of
	// goroutine scheduling under Parallel > 1 and identically-seeded runs
	// are bitwise-reproducible. Re-measuring the same config at the same
	// fidelity repeats the same measurement.
	Rng *rand.Rand

	mu        sync.Mutex
	seeded    bool
	noiseSeed int64
}

// noiseRng derives the per-evaluation noise source. Drawing from the
// shared e.Rng directly would hand out noise values in goroutine
// lock-acquisition order, making identically-seeded parallel runs
// diverge; hashing the config instead makes each trial's noise a pure
// function of the run seed and what is being measured.
func (e *SystemEnv) noiseRng(cfg space.Config, fidelity float64) *rand.Rand {
	e.mu.Lock()
	if !e.seeded {
		e.noiseSeed = e.Rng.Int63()
		e.seeded = true
	}
	seed := e.noiseSeed
	e.mu.Unlock()
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	key := cfg.Key()
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	bits := math.Float64bits(fidelity)
	for i := 0; i < 8; i++ {
		h ^= bits >> (8 * i) & 0xff
		h *= prime64
	}
	return rand.New(rand.NewSource(seed ^ int64(h)))
}

// Space implements Environment.
func (e *SystemEnv) Space() *space.Space { return e.Sys.Space() }

// Run implements Environment.
func (e *SystemEnv) Run(ctx context.Context, cfg space.Config, fidelity float64) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if !(fidelity > 0 && fidelity <= 1) {
		fidelity = 1
	}
	base := e.BaseDurationSec
	if base <= 0 {
		base = 300
	}
	var m simsys.Metrics
	var err error
	if e.Rng != nil {
		m, err = e.Sys.Run(cfg, e.WL, fidelity, e.noiseRng(cfg, fidelity))
	} else {
		m, err = e.Sys.Run(cfg, e.WL, fidelity, nil)
	}
	if err != nil {
		return Result{CostSeconds: base * fidelity * 0.2}, err // crashes fail fast
	}
	obj := e.Objective
	if obj == nil {
		obj = func(m simsys.Metrics) float64 { return m.LatencyMS }
	}
	return Result{
		Value: obj(m),
		Metrics: map[string]float64{
			"throughput_ops": m.ThroughputOps,
			"latency_ms":     m.LatencyMS,
			"p95_ms":         m.P95MS,
			"cost_usd_hr":    m.CostUSDPerHour,
		},
		CostSeconds: base * fidelity,
	}, nil
}

// RunAbortable implements Abortable: an elapsed-time benchmark (think
// TPC-H) can be stopped once its projected score exceeds the threshold;
// the model charges cost proportional to the fraction actually run.
func (e *SystemEnv) RunAbortable(ctx context.Context, cfg space.Config, fidelity, abortAbove float64) (Result, bool, error) {
	res, err := e.Run(ctx, cfg, fidelity)
	if err != nil {
		return res, false, err
	}
	if !math.IsInf(abortAbove, 0) && res.Value > abortAbove {
		frac := abortAbove / res.Value // the run was cut at the threshold
		if frac < 0.05 {
			frac = 0.05
		}
		res.CostSeconds *= frac
		return res, true, nil
	}
	return res, false, nil
}

// Options configures a tuning run.
type Options struct {
	// Budget is the number of trials (required).
	Budget int
	// Parallel evaluates trials in synchronized batches of this size
	// (default 1 = sequential). Batch suggestions use
	// optimizer.BatchSuggester when available.
	Parallel int
	// Fidelity for all trials, in (0, 1] (default 1).
	Fidelity float64
	// AbortMargin, when > 0, enables early abort on Abortable
	// environments at threshold best*(1+AbortMargin).
	AbortMargin float64
	// DegradeAfterTimeouts, when > 0, halves the working fidelity after
	// this many consecutive timed-out trials (graceful degradation when
	// the environment is persistently too slow for its deadline).
	DegradeAfterTimeouts int
	// Scheduler, when non-nil, replaces the synchronized batch barrier
	// with the supervised asynchronous pool from internal/sched: bounded
	// workers mapped onto host slots, panic isolation, straggler hedging,
	// quarantine-aware placement, and graceful drain. Parallel still sets
	// the batch size; Scheduler.Workers defaults to Parallel. The default
	// virtual clock keeps identically-seeded runs bitwise identical.
	Scheduler *sched.Options
	// DedupEvals enables the single-flight evaluation cache: when the
	// optimizer re-suggests a (config, fidelity) pair that already
	// completed successfully, the cached measurement is reused at zero
	// cost instead of re-running the environment, and concurrent
	// duplicates within a batch wait for the first rather than racing.
	// Each reuse still produces its own journaled trial record (marked
	// CacheHit), so replay and live accounting agree. Off by default:
	// noisy real environments may want fresh measurements of repeated
	// configs.
	DedupEvals bool
}

// crashPenaltyFactor scores crashed trials at this factor times the worst
// finite value so far. The penalty keeps optimizers away from the cliff
// without poisoning surrogates with infinities.
const crashPenaltyFactor = 2

// minFidelity floors fidelity degradation (Options.DegradeAfterTimeouts).
const minFidelity = 0.1

func (o Options) withDefaults() (Options, error) {
	if o.Budget <= 0 {
		return o, errors.New("trial: budget must be positive")
	}
	if o.Parallel < 1 {
		o.Parallel = 1
	}
	if o.Fidelity == 0 {
		o.Fidelity = 1
	}
	if !(o.Fidelity > 0 && o.Fidelity <= 1) { // NaN fails both comparisons
		return o, fmt.Errorf("trial: fidelity %v outside (0, 1]", o.Fidelity)
	}
	if o.Scheduler != nil {
		sc := *o.Scheduler // default a copy; the caller's struct stays untouched
		if sc.Workers <= 0 {
			if len(sc.Hosts) > 0 {
				sc.Workers = len(sc.Hosts)
			} else {
				sc.Workers = o.Parallel
			}
		}
		o.Scheduler = &sc
	}
	return o, nil
}

// TrialRecord is one completed trial.
type TrialRecord struct {
	ID          int          `json:"id"`
	Config      space.Config `json:"config"`
	Value       float64      `json:"value"`
	CostSeconds float64      `json:"cost_seconds"`
	Crashed     bool         `json:"crashed,omitempty"`
	Aborted     bool         `json:"aborted,omitempty"`
	TimedOut    bool         `json:"timed_out,omitempty"`
	// Fidelity records the fidelity the trial actually ran at (may be
	// below Options.Fidelity after graceful degradation).
	Fidelity float64 `json:"fidelity,omitempty"`
	// Hedged marks trials where the scheduler launched a duplicate
	// attempt; the recorded result is the winner's.
	Hedged bool `json:"hedged,omitempty"`
	// CacheHit marks trials satisfied by the evaluation cache: the value
	// comes from an earlier identical trial and CostSeconds is zero.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Metrics carries auxiliary measurements by name (Result.Metrics for
	// environment-run trials, client-reported metrics for service-side
	// observes). Secondary objectives for Pareto queries ride here.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is a completed tuning session.
type Report struct {
	Trials []TrialRecord `json:"trials"`
	// BestConfig/BestValue track the best non-crashed trial.
	BestConfig space.Config `json:"best_config"`
	BestValue  float64      `json:"best_value"`
	// TotalCostSeconds sums trial costs; WallClockSeconds accounts for
	// parallelism (per-batch max instead of sum).
	TotalCostSeconds float64 `json:"total_cost_seconds"`
	WallClockSeconds float64 `json:"wall_clock_seconds"`
	Crashes          int     `json:"crashes"`
	Aborts           int     `json:"aborts"`
	// Timeouts counts trials killed by a deadline; Degradations counts
	// fidelity halvings triggered by consecutive timeouts.
	Timeouts     int `json:"timeouts,omitempty"`
	Degradations int `json:"degradations,omitempty"`
	// Resumed counts the records the study already held when the run
	// started: replayed from a journal rather than run.
	Resumed int `json:"resumed,omitempty"`
	// Hedges counts duplicate attempts launched by the scheduler;
	// HedgeWins counts trials where the duplicate finished first.
	Hedges    int `json:"hedges,omitempty"`
	HedgeWins int `json:"hedge_wins,omitempty"`
	// Panics counts trials whose environment panicked (recovered at the
	// trial boundary and scored as crashes).
	Panics int `json:"panics,omitempty"`
	// CacheHits counts trials satisfied by the evaluation cache
	// (Options.DedupEvals) without running the environment.
	CacheHits int `json:"cache_hits,omitempty"`
}

// Run drives the study against the environment until it holds
// opts.Budget records.
func Run(s *Study, env Environment, opts Options) (Report, error) {
	//autolint:ignore ctxpass public context-free convenience wrapper over RunContext
	return RunContext(context.Background(), s, env, opts)
}

// RunContext is Run with cancellation: when ctx is cancelled the loop
// stops at the next batch boundary (the in-flight batch is discarded) and
// returns the partial report together with the context's error. Every
// trial in that report is already in the study's sink, if it has one.
//
// The study may already hold records — a history it replayed from a
// journal, say: they count toward the budget, the report's counters and
// Resumed, and the environment never re-runs them. A history that already
// covers the budget returns without touching the environment. The report
// is filled in on every return path.
func RunContext(ctx context.Context, s *Study, env Environment, opts Options) (Report, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return Report{}, err
	}
	d := &driver{opts: opts, study: s, worstFinite: math.Inf(-1)}
	if opts.DedupEvals {
		d.cache = newEvalCache()
	}
	history := s.Records()
	d.rep.Resumed = len(history)
	for _, tr := range history {
		d.count(tr)
		// Completed measurements re-warm the cache so a config already paid
		// for before the kill is never re-run. Failed trials stay uncached:
		// crashes and timeouts may be transient, and an aborted value is a
		// truncated measurement.
		if d.cache == nil || tr.Crashed || tr.Aborted || tr.TimedOut || tr.CacheHit {
			continue
		}
		fid := tr.Fidelity
		if fid == 0 {
			fid = opts.Fidelity
		}
		d.cache.prime(evalKey{cfg: tr.Config.Key(), fidelity: fid},
			Result{Value: tr.Value, CostSeconds: tr.CostSeconds})
	}
	err = d.loop(ctx, env)
	d.rep.Trials = s.Records()
	d.rep.BestValue = math.Inf(1)
	if best, ok := s.Best(); ok {
		d.rep.BestValue = best.Value
		d.rep.BestConfig = best.Config.Clone()
	} else if err == nil {
		err = errors.New("trial: no successful trials")
	}
	return d.rep, err
}

// driver is the library loop around a Study: it evaluates what the study
// suggests, scores crashes, tells the study, and keeps the counters a
// Report carries that the trial records alone do not determine.
type driver struct {
	opts           Options
	study          *Study
	rep            Report
	cache          *evalCache // nil unless Options.DedupEvals
	worstFinite    float64    // scale of the crash penalty
	consecTimeouts int
}

// count folds one recorded trial — replayed or just told — into the
// report's counters and the crash-penalty scale.
func (d *driver) count(rec TrialRecord) {
	d.rep.TotalCostSeconds += rec.CostSeconds
	if rec.Crashed {
		d.rep.Crashes++
		if rec.TimedOut {
			d.rep.Timeouts++
		}
	} else if rec.Value > d.worstFinite {
		d.worstFinite = rec.Value
	}
	if rec.Aborted {
		d.rep.Aborts++
	}
	if rec.CacheHit {
		d.rep.CacheHits++
	}
}

// bestValue is the incumbent's value, +Inf before the first success.
func (d *driver) bestValue() float64 {
	if best, ok := d.study.Best(); ok {
		return best.Value
	}
	return math.Inf(1)
}

// tell finalizes one completed trial: impute the crash penalty, hand the
// record to the study (which journals it before the optimizer observes
// it), and count it.
func (d *driver) tell(cfg space.Config, r trialOutcome, id int, fid float64, hedged bool) error {
	rec := TrialRecord{
		ID:          id,
		Config:      cfg.Clone(),
		Value:       r.res.Value,
		CostSeconds: r.res.CostSeconds,
		Aborted:     r.aborted,
		Fidelity:    fid,
		Hedged:      hedged,
		CacheHit:    r.cacheHit,
		Metrics:     r.res.Metrics,
	}
	if r.err != nil {
		rec.Crashed = true
		rec.TimedOut = errors.Is(r.err, context.DeadlineExceeded)
		// Impute the penalty score (slide 67: "make it up").
		if math.IsInf(d.worstFinite, -1) {
			rec.Value = 1e6
		} else {
			rec.Value = crashPenaltyFactor * math.Max(d.worstFinite, math.Abs(d.worstFinite))
			if rec.Value <= d.worstFinite {
				rec.Value = d.worstFinite + 1
			}
		}
	}
	acked, _, err := d.study.Observe([]TrialRecord{rec})
	if acked == 0 {
		return err
	}
	d.count(rec)
	if errors.Is(r.err, ErrPanic) {
		d.rep.Panics++
	}
	if rec.TimedOut {
		d.consecTimeouts++
	} else if r.err == nil {
		d.consecTimeouts = 0
	}
	return err
}

// runBarrierBatch is the synchronized path: evaluate the whole batch,
// wait for every trial, tell results in batch order.
func (d *driver) runBarrierBatch(ctx context.Context, env Environment, first int, batch []space.Config, fid float64) error {
	results := runBatch(ctx, env, d.cache, batch, d.opts, fid, d.bestValue())
	if err := ctx.Err(); err != nil {
		// The batch raced with cancellation; its results are suspect
		// (environments may have returned early) — drop them and let a
		// resumed run re-run the batch.
		return err
	}
	batchMaxCost := 0.0
	for i, cfg := range batch {
		if results[i].res.CostSeconds > batchMaxCost {
			batchMaxCost = results[i].res.CostSeconds
		}
		if err := d.tell(cfg, results[i], first+i, fid, false); err != nil {
			return err
		}
	}
	d.rep.WallClockSeconds += batchMaxCost
	return nil
}

// runSchedBatch routes the batch through the asynchronous pool:
// completions are told (journaled, observed) as they finish rather than
// at a barrier, so a kill mid-batch keeps every finished trial. On drain,
// attempts that observed the cancellation are dropped — their results are
// context errors, not measurements — and their reserved IDs are retired
// unused.
func (d *driver) runSchedBatch(ctx context.Context, pool *sched.Pool, env Environment, first int, batch []space.Config, fid float64) error {
	abortAbove := math.Inf(1)
	if best := d.bestValue(); d.opts.AbortMargin > 0 && !math.IsInf(best, 1) {
		abortAbove = best * (1 + d.opts.AbortMargin)
	}
	exec := func(actx context.Context, task, attempt int) sched.Attempt {
		var out trialOutcome
		if attempt == 0 {
			out = runOneCached(actx, env, d.cache, batch[task], fid, abortAbove)
		} else {
			// Hedge duplicates exist to race a straggling primary; routing
			// them through the cache would make them wait on that same
			// primary instead of independently re-running it.
			out = runOne(actx, env, batch[task], fid, abortAbove)
		}
		return sched.Attempt{Cost: out.res.CostSeconds, Err: out.err, Payload: out}
	}
	before := pool.Stats()
	var tellErr error
	elapsed, runErr := pool.Run(ctx, len(batch), exec, func(c sched.Completion) {
		if tellErr != nil {
			return
		}
		out, ok := c.Result.Payload.(trialOutcome)
		if !ok {
			// The pool's own guard caught a panic below runOne's recovery
			// (scheduler bug territory); keep the error, lose no trial.
			out = trialOutcome{err: c.Result.Err}
		}
		if ctx.Err() != nil && out.err != nil && errors.Is(out.err, ctx.Err()) {
			return
		}
		// Charge the time the trial actually burned on its host slot
		// (the reported cost scaled by the host's speed multiplier),
		// plus whatever a cancelled duplicate wasted.
		out.res.CostSeconds = c.Cost
		d.rep.TotalCostSeconds += c.Waste
		tellErr = d.tell(batch[c.Task], out, first+c.Task, fid, c.Hedged)
	})
	d.rep.WallClockSeconds += elapsed
	after := pool.Stats()
	d.rep.Hedges += after.Hedges - before.Hedges
	d.rep.HedgeWins += after.HedgeWins - before.HedgeWins
	if tellErr != nil {
		return tellErr
	}
	return runErr
}

// loop asks, evaluates and tells until the budget is reached or the
// strategy is exhausted.
func (d *driver) loop(ctx context.Context, env Environment) error {
	opts := d.opts
	var pool *sched.Pool
	if opts.Scheduler != nil {
		pool = sched.New(*opts.Scheduler)
	}
	fid := opts.Fidelity
	for rem := opts.Budget - len(d.study.Records()); rem > 0; rem = opts.Budget - len(d.study.Records()) {
		if err := ctx.Err(); err != nil {
			return err
		}
		first, batch, _, err := d.study.Suggest(min(opts.Parallel, rem))
		if err != nil {
			return fmt.Errorf("trial %d: %w", d.study.NextID(), err)
		}
		if len(batch) == 0 {
			return nil // exhausted
		}
		if pool != nil {
			err = d.runSchedBatch(ctx, pool, env, first, batch, fid)
		} else {
			err = d.runBarrierBatch(ctx, env, first, batch, fid)
		}
		if err != nil {
			return err
		}
		// Graceful degradation: a deadline the environment persistently
		// misses means the fidelity is too expensive for this host —
		// halve it instead of burning the rest of the budget on timeouts.
		if opts.DegradeAfterTimeouts > 0 && d.consecTimeouts >= opts.DegradeAfterTimeouts && fid > minFidelity {
			fid = math.Max(fid/2, minFidelity)
			d.rep.Degradations++
			d.consecTimeouts = 0
		}
	}
	return nil
}

type trialOutcome struct {
	res      Result
	aborted  bool
	err      error
	cacheHit bool
}

// runBatch evaluates configurations concurrently (one goroutine each).
func runBatch(ctx context.Context, env Environment, cache *evalCache, batch []space.Config, opts Options, fidelity, best float64) []trialOutcome {
	out := make([]trialOutcome, len(batch))
	abortAbove := math.Inf(1)
	if opts.AbortMargin > 0 && !math.IsInf(best, 1) {
		abortAbove = best * (1 + opts.AbortMargin)
	}
	if len(batch) == 1 {
		out[0] = runOneCached(ctx, env, cache, batch[0], fidelity, abortAbove)
		return out
	}
	var wg sync.WaitGroup
	for i := range batch {
		wg.Add(1)
		//autolint:ignore nakedgo runOne recovers environment panics at the trial boundary
		go func(i int) {
			defer wg.Done()
			out[i] = runOneCached(ctx, env, cache, batch[i], fidelity, abortAbove)
		}(i)
	}
	wg.Wait()
	return out
}

// runOne evaluates a single configuration. A panic inside the
// Environment — a bug, not a benchmark result — must not unwind the
// tuning loop (or, under Parallel > 1, kill the whole process), so the
// evaluation runs under sched.Guard and a panic surfaces as a trial
// error wrapping ErrPanic with the panic value and stack.
func runOne(ctx context.Context, env Environment, cfg space.Config, fidelity, abortAbove float64) (out trialOutcome) {
	err := sched.Guard(func() error {
		if ab, ok := env.(Abortable); ok && !math.IsInf(abortAbove, 1) {
			res, aborted, err := ab.RunAbortable(ctx, cfg, fidelity, abortAbove)
			out = trialOutcome{res: res, aborted: aborted, err: err}
			return nil
		}
		res, err := env.Run(ctx, cfg, fidelity)
		out = trialOutcome{res: res, err: err}
		return nil
	})
	if err != nil {
		out = trialOutcome{err: err}
	}
	return out
}

// Save writes the report as JSON. The write is crash-safe against both
// process kills and power failure: data goes to a temp file in the
// target directory, is fsync'd, renamed into place, and the directory is
// fsync'd too — a reader never observes a torn file, and the rename
// itself survives a crash.
func (r Report) Save(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("trial: marshal report: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".report-*.tmp")
	if err != nil {
		return fmt.Errorf("trial: temp file in %s: %w", dir, err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		//autolint:ignore droppederr already failing; the close error is secondary
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("trial: write %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		//autolint:ignore droppederr already failing; the close error is secondary
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("trial: sync %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("trial: close %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("trial: rename to %s: %w", path, err)
	}
	// Without a directory fsync the rename may not be durable: a power
	// failure can roll the directory back to the old entry — or, for a
	// first write, to no entry at all.
	return syncDir(dir)
}

// syncDir fsyncs a directory so a rename or create inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("trial: open dir %s: %w", dir, err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trial: sync dir %s: %w", dir, err)
	}
	return nil
}

// BestOverTime returns the running-best value after each trial — the
// convergence curve every experiment plots.
func (r Report) BestOverTime() []float64 {
	out := make([]float64, len(r.Trials))
	best := math.Inf(1)
	for i, t := range r.Trials {
		if !t.Crashed && t.Value < best {
			best = t.Value
		}
		out[i] = best
	}
	return out
}
