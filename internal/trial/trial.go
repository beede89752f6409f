// Package trial is the offline tuning loop: it wires an optimizer to an
// Environment (anything that can benchmark a configuration), handles
// crashes, early aborts, fidelity, and parallel trial execution, and
// records a persistent report — the "scheduler + system-specific scripts"
// box from the tutorial's architecture slide.
//
// Trials are cancellable and deadline-bounded: Environment.Run takes a
// context.Context, RunContext aborts cleanly between batches when the
// context is cancelled, and Options.Checkpoint persists progress
// atomically so Resume can replay a killed session into a fresh optimizer
// without re-running completed trials. Fault-hardening wrappers (retry
// with backoff, per-trial deadlines, quarantine) live in
// internal/resilience.
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

	"autotune/internal/optimizer"
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
	if fidelity <= 0 || fidelity > 1 {
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
	// Fidelity for all trials (default 1).
	Fidelity float64
	// AbortMargin, when > 0, enables early abort on Abortable
	// environments at threshold best*(1+AbortMargin).
	AbortMargin float64
	// CrashPenaltyFactor scores crashed trials at factor x the worst
	// finite value so far (default 2). The penalty keeps optimizers away
	// from the cliff without poisoning surrogates with infinities.
	CrashPenaltyFactor float64
	// Checkpoint, when non-empty, persists the in-progress Report to this
	// path (atomic write) so a killed run can continue via Resume.
	Checkpoint string
	// CheckpointEvery is how many completed trials between checkpoint
	// writes (default: after every batch).
	CheckpointEvery int
	// DegradeAfterTimeouts, when > 0, halves the working fidelity after
	// this many consecutive timed-out trials (graceful degradation when
	// the environment is persistently too slow for its deadline).
	DegradeAfterTimeouts int
	// MinFidelity floors fidelity degradation (default 0.1).
	MinFidelity float64
	// Scheduler, when non-nil, replaces the synchronized batch barrier
	// with the supervised asynchronous pool from internal/sched: bounded
	// workers mapped onto host slots, panic isolation, straggler hedging,
	// quarantine-aware placement, and graceful drain. Parallel still sets
	// the batch size; Scheduler.Workers defaults to Parallel. The default
	// virtual clock keeps identically-seeded runs bitwise identical.
	Scheduler *sched.Options
	// HedgeQuantile in (0,1) is a convenience knob: it enables the
	// scheduler (with defaults) and hedges trials that run past this
	// quantile of recent trial durations. Ignored when Scheduler already
	// sets its own quantile.
	HedgeQuantile float64
	// Store, when non-empty, journals every completed trial into the
	// crash-safe segmented study store at this directory *before* the
	// optimizer observes it (internal/studystore: CRC-framed records,
	// fsync barriers, snapshot compaction, quarantined corruption). A run
	// killed mid-batch resumes from the store with every finished trial
	// intact; see Resume.
	Store string
	// Study names the study within Store that this run's trials belong
	// to; empty means "default". Ignored unless Store is set.
	Study string
	// Sink, when non-nil, overrides Store with a custom write-ahead sink.
	// The caller owns its lifecycle — the run does not Close it.
	Sink JournalSink
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

func (o Options) withDefaults() (Options, error) {
	if o.Budget <= 0 {
		return o, errors.New("trial: budget must be positive")
	}
	if o.Parallel < 1 {
		o.Parallel = 1
	}
	if o.Fidelity <= 0 || o.Fidelity > 1 {
		o.Fidelity = 1
	}
	if o.CrashPenaltyFactor <= 0 {
		o.CrashPenaltyFactor = 2
	}
	if o.MinFidelity <= 0 {
		o.MinFidelity = 0.1
	}
	if o.HedgeQuantile < 0 || o.HedgeQuantile >= 1 {
		o.HedgeQuantile = 0
	}
	if o.Scheduler == nil && o.HedgeQuantile > 0 {
		o.Scheduler = &sched.Options{}
	}
	if o.Scheduler != nil {
		sc := *o.Scheduler // default a copy; the caller's struct stays untouched
		if sc.HedgeQuantile == 0 {
			sc.HedgeQuantile = o.HedgeQuantile
		}
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
	// Resumed counts trials restored from a checkpoint rather than run.
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

// Run drives the optimizer against the environment for the full budget.
func Run(o optimizer.Optimizer, env Environment, opts Options) (Report, error) {
	//autolint:ignore ctxpass public context-free convenience wrapper over RunContext
	return RunContext(context.Background(), o, env, opts)
}

// RunContext is Run with cancellation: when ctx is cancelled the loop
// stops at the next batch boundary (the in-flight batch is discarded),
// writes a final checkpoint if one is configured, and returns the partial
// report together with the context's error.
func RunContext(ctx context.Context, o optimizer.Optimizer, env Environment, opts Options) (Report, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return Report{}, err
	}
	var rep Report
	rep.BestValue = math.Inf(1)
	return finishRun(runLoop(ctx, o, env, opts, &rep, math.Inf(-1)))
}

// Resume continues a tuning session from the checkpoint at
// opts.Checkpoint and/or the write-ahead journal in the segmented study
// store at opts.Store: the recorded trials are replayed into the
// optimizer (Observe only — the environment is not re-run), counters
// and the incumbent are restored, and the loop continues until the
// budget is reached. The journal is the finer-grained source: it holds
// trials from a batch that was killed before its checkpoint was written,
// so a mid-batch kill loses zero finished trials and re-runs none of
// them. A history that already covers the budget returns immediately
// without touching the environment.
func Resume(o optimizer.Optimizer, env Environment, opts Options) (Report, error) {
	//autolint:ignore ctxpass public context-free convenience wrapper over ResumeContext
	return ResumeContext(context.Background(), o, env, opts)
}

// ResumeContext is Resume with cancellation.
func ResumeContext(ctx context.Context, o optimizer.Optimizer, env Environment, opts Options) (Report, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return Report{}, err
	}
	if opts.Checkpoint == "" && opts.Store == "" {
		return Report{}, errors.New("trial: resume needs Options.Checkpoint or Options.Store")
	}
	var rep Report
	if opts.Checkpoint != "" {
		rep, err = LoadReport(opts.Checkpoint)
		if err != nil {
			return Report{}, fmt.Errorf("trial: resume: %w", err)
		}
	}
	if opts.Store != "" {
		recs, err := ReadStudyJournal(opts.Store, opts.Study)
		if err != nil {
			return Report{}, fmt.Errorf("trial: resume: %w", err)
		}
		mergeJournal(&rep, recs)
	}
	// Rebuild derived state from the trial log rather than trusting the
	// stored summary: the incumbent, the worst finite value (crash
	// penalty scale), and the optimizer's observation history.
	rep.BestValue = math.Inf(1)
	rep.BestConfig = nil
	worstFinite := math.Inf(-1)
	for _, tr := range rep.Trials {
		if !tr.Crashed {
			if tr.Value < rep.BestValue {
				rep.BestValue = tr.Value
				rep.BestConfig = tr.Config.Clone()
			}
			if tr.Value > worstFinite {
				worstFinite = tr.Value
			}
		}
		if err := o.Observe(tr.Config, tr.Value); err != nil {
			return rep, fmt.Errorf("trial: resume replay %d: %w", tr.ID, err)
		}
	}
	rep.Resumed = len(rep.Trials)
	if len(rep.Trials) >= opts.Budget {
		return finishRun(&rep, nil)
	}
	return finishRun(runLoop(ctx, o, env, opts, &rep, worstFinite))
}

// mergeJournal folds journal records the checkpoint does not cover into
// the report. Records are already ID-deduplicated by the store;
// duplicates against the checkpoint are dropped here, so the merged
// trial set contains each completed trial exactly once.
func mergeJournal(rep *Report, recs []TrialRecord) {
	seen := make(map[int]bool, len(rep.Trials))
	for _, tr := range rep.Trials {
		seen[tr.ID] = true
	}
	for _, rec := range recs {
		if seen[rec.ID] {
			continue
		}
		seen[rec.ID] = true
		rep.Trials = append(rep.Trials, rec)
		rep.TotalCostSeconds += rec.CostSeconds
		if rec.Crashed {
			rep.Crashes++
			if rec.TimedOut {
				rep.Timeouts++
			}
		}
		if rec.Aborted {
			rep.Aborts++
		}
		if rec.CacheHit {
			rep.CacheHits++
		}
	}
}

// finishRun applies the terminal invariants shared by Run and Resume.
func finishRun(rep *Report, err error) (Report, error) {
	if err != nil {
		return *rep, err
	}
	if math.IsInf(rep.BestValue, 1) {
		return *rep, errors.New("trial: no successful trials")
	}
	return *rep, nil
}

// runState carries the mutable loop state shared by the barrier and
// scheduler execution paths.
type runState struct {
	opts           Options
	o              optimizer.Optimizer
	rep            *Report
	journal        JournalSink
	cache          *evalCache // nil unless Options.DedupEvals
	worstFinite    float64
	consecTimeouts int
	// nextID is the next trial ID to assign. It starts past the largest
	// recorded ID (not at len(Trials)): a resumed journal may have gaps
	// where a drained batch pre-assigned IDs that never completed, and
	// those must not be reused for different configs.
	nextID int
}

// nextTrialID returns one past the largest recorded trial ID.
func nextTrialID(trials []TrialRecord) int {
	next := 0
	for _, t := range trials {
		if t.ID >= next {
			next = t.ID + 1
		}
	}
	return next
}

// absorb finalizes one completed trial: impute the crash penalty, update
// the incumbent and timeout counters, make the record durable, report it
// to the optimizer, and append it to the report. Order is the WAL
// contract: the journal append happens *before* Observe, so any trial
// the optimizer has seen is recoverable after a kill.
func (s *runState) absorb(cfg space.Config, r trialOutcome, id int, fid float64, hedged bool) error {
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
	s.rep.TotalCostSeconds += r.res.CostSeconds
	if r.cacheHit {
		s.rep.CacheHits++
	}
	obsValue := r.res.Value
	if r.err != nil {
		rec.Crashed = true
		s.rep.Crashes++
		if errors.Is(r.err, ErrPanic) {
			s.rep.Panics++
		}
		if errors.Is(r.err, context.DeadlineExceeded) {
			rec.TimedOut = true
			s.rep.Timeouts++
			s.consecTimeouts++
		}
		// Impute the penalty score (slide 67: "make it up").
		if math.IsInf(s.worstFinite, -1) {
			obsValue = 1e6
		} else {
			obsValue = s.opts.CrashPenaltyFactor * math.Max(s.worstFinite, math.Abs(s.worstFinite))
			if obsValue <= s.worstFinite {
				obsValue = s.worstFinite + 1
			}
		}
		rec.Value = obsValue
	} else {
		s.consecTimeouts = 0
		if obsValue > s.worstFinite {
			s.worstFinite = obsValue
		}
		if obsValue < s.rep.BestValue {
			s.rep.BestValue = obsValue
			s.rep.BestConfig = cfg.Clone()
		}
	}
	if r.aborted {
		s.rep.Aborts++
	}
	if s.journal != nil {
		if err := s.journal.Append(rec); err != nil {
			return err
		}
	}
	if err := s.o.Observe(cfg, obsValue); err != nil {
		return fmt.Errorf("trial %d observe: %w", rec.ID, err)
	}
	s.rep.Trials = append(s.rep.Trials, rec)
	return nil
}

// runBarrierBatch is the legacy synchronized path: evaluate the whole
// batch, wait for every trial, absorb results in batch order.
func (s *runState) runBarrierBatch(ctx context.Context, env Environment, batch []space.Config, fid float64) error {
	results := runBatch(ctx, env, s.cache, batch, s.opts, fid, s.rep.BestValue)
	if err := ctx.Err(); err != nil {
		// The batch raced with cancellation; its results are suspect
		// (environments may have returned early) — drop them and let
		// Resume re-run the batch.
		return err
	}
	batchMaxCost := 0.0
	for i, cfg := range batch {
		if results[i].res.CostSeconds > batchMaxCost {
			batchMaxCost = results[i].res.CostSeconds
		}
		if err := s.absorb(cfg, results[i], s.nextID, fid, false); err != nil {
			return err
		}
		s.nextID++
	}
	s.rep.WallClockSeconds += batchMaxCost
	return nil
}

// runSchedBatch routes the batch through the asynchronous pool:
// completions are absorbed (journaled, observed) as they finish rather
// than at a barrier, so a kill mid-batch keeps every finished trial. On
// drain, attempts that observed the cancellation are dropped — their
// results are context errors, not measurements — and their pre-assigned
// IDs are retired unused.
func (s *runState) runSchedBatch(ctx context.Context, pool *sched.Pool, env Environment, batch []space.Config, fid float64) error {
	abortAbove := math.Inf(1)
	if s.opts.AbortMargin > 0 && !math.IsInf(s.rep.BestValue, 1) {
		abortAbove = s.rep.BestValue * (1 + s.opts.AbortMargin)
	}
	exec := func(actx context.Context, task, attempt int) sched.Attempt {
		var out trialOutcome
		if attempt == 0 {
			out = runOneCached(actx, env, s.cache, batch[task], fid, abortAbove)
		} else {
			// Hedge duplicates exist to race a straggling primary; routing
			// them through the cache would make them wait on that same
			// primary instead of independently re-running it.
			out = runOne(actx, env, batch[task], fid, abortAbove)
		}
		return sched.Attempt{Cost: out.res.CostSeconds, Err: out.err, Payload: out}
	}
	baseID := s.nextID
	s.nextID += len(batch)
	before := pool.Stats()
	var absorbErr error
	elapsed, runErr := pool.Run(ctx, len(batch), exec, func(c sched.Completion) {
		if absorbErr != nil {
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
		s.rep.TotalCostSeconds += c.Waste
		absorbErr = s.absorb(batch[c.Task], out, baseID+c.Task, fid, c.Hedged)
	})
	s.rep.WallClockSeconds += elapsed
	after := pool.Stats()
	s.rep.Hedges += after.Hedges - before.Hedges
	s.rep.HedgeWins += after.HedgeWins - before.HedgeWins
	if absorbErr != nil {
		return absorbErr
	}
	return runErr
}

// runLoop executes trials until the budget is reached, mutating rep.
func runLoop(ctx context.Context, o optimizer.Optimizer, env Environment, opts Options, rep *Report, worstFinite float64) (*Report, error) {
	s := &runState{opts: opts, o: o, rep: rep, worstFinite: worstFinite, nextID: nextTrialID(rep.Trials)}
	if opts.DedupEvals {
		s.cache = newEvalCache()
		// On resume, completed measurements re-warm the cache so a config
		// already paid for before the kill is never re-run. Failed trials
		// stay uncached: crashes and timeouts may be transient, and an
		// aborted value is a truncated measurement.
		for _, tr := range rep.Trials {
			if tr.Crashed || tr.Aborted || tr.TimedOut || tr.CacheHit {
				continue
			}
			fid := tr.Fidelity
			if fid == 0 {
				fid = opts.Fidelity
			}
			s.cache.prime(evalKey{cfg: tr.Config.Key(), fidelity: fid},
				Result{Value: tr.Value, CostSeconds: tr.CostSeconds})
		}
	}
	switch {
	case opts.Sink != nil:
		s.journal = opts.Sink
	case opts.Store != "":
		sj, err := OpenStudyJournal(opts.Store, opts.Study)
		if err != nil {
			return rep, err
		}
		defer sj.Close()
		s.journal = sj
	}
	var pool *sched.Pool
	if opts.Scheduler != nil {
		pool = sched.New(*opts.Scheduler)
	}
	fid := opts.Fidelity
	sinceCheckpoint := 0
	checkpointEvery := opts.CheckpointEvery
	if checkpointEvery < 1 {
		checkpointEvery = 1 // every batch
	}
	checkpoint := func() {
		if opts.Checkpoint != "" {
			// A checkpoint failure must not kill the run it protects;
			// the next interval retries the write.
			//autolint:ignore droppederr checkpointing is best-effort by design
			_ = saveCheckpoint(*rep, opts.Checkpoint)
		}
	}
	for len(rep.Trials) < opts.Budget {
		if err := ctx.Err(); err != nil {
			checkpoint()
			return rep, err
		}
		n := opts.Parallel
		if rem := opts.Budget - len(rep.Trials); n > rem {
			n = rem
		}
		batch, err := suggestBatch(o, n)
		if errors.Is(err, optimizer.ErrExhausted) {
			break
		}
		if err != nil {
			return rep, fmt.Errorf("trial %d: %w", s.nextID, err)
		}
		if pool != nil {
			err = s.runSchedBatch(ctx, pool, env, batch, fid)
		} else {
			err = s.runBarrierBatch(ctx, env, batch, fid)
		}
		if err != nil {
			if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
				// Cancellation: persist what was absorbed before leaving.
				checkpoint()
			}
			return rep, err
		}
		// Graceful degradation: a deadline the environment persistently
		// misses means the fidelity is too expensive for this host —
		// halve it instead of burning the rest of the budget on timeouts.
		if opts.DegradeAfterTimeouts > 0 && s.consecTimeouts >= opts.DegradeAfterTimeouts && fid > opts.MinFidelity {
			fid = math.Max(fid/2, opts.MinFidelity)
			rep.Degradations++
			s.consecTimeouts = 0
		}
		sinceCheckpoint += len(batch)
		if opts.Checkpoint != "" && sinceCheckpoint >= checkpointEvery {
			checkpoint()
			sinceCheckpoint = 0
		}
	}
	checkpoint()
	return rep, nil
}

func suggestBatch(o optimizer.Optimizer, n int) ([]space.Config, error) {
	if n == 1 {
		cfg, err := o.Suggest()
		if err != nil {
			return nil, err
		}
		return []space.Config{cfg}, nil
	}
	if bs, ok := o.(optimizer.BatchSuggester); ok {
		return bs.SuggestN(n)
	}
	out := make([]space.Config, 0, n)
	for i := 0; i < n; i++ {
		cfg, err := o.Suggest()
		if err != nil {
			if len(out) > 0 && errors.Is(err, optimizer.ErrExhausted) {
				break
			}
			return nil, err
		}
		out = append(out, cfg)
	}
	return out, nil
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

// saveCheckpoint persists an in-progress report, sanitizing the +Inf
// incumbent a run that has not yet succeeded carries (JSON cannot encode
// infinities; Resume recomputes the incumbent from the trial log anyway).
func saveCheckpoint(r Report, path string) error {
	if math.IsInf(r.BestValue, 0) || math.IsNaN(r.BestValue) {
		r.BestValue = 0
		r.BestConfig = nil
	}
	return r.Save(path)
}

// Save writes the report as JSON. The write is crash-safe against both
// process kills and power failure: data goes to a temp file in the
// target directory, is fsync'd, renamed into place, and the directory is
// fsync'd too — a reader (or a resumed run) never observes a torn file,
// and the rename itself survives a crash.
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

// LoadReport reads a report written by Save.
func LoadReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, fmt.Errorf("trial: read %s: %w", path, err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, fmt.Errorf("trial: parse %s: %w", path, err)
	}
	return r, nil
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
