// Package autotune is a generalized systems-autotuning framework in pure
// Go: the reproduction companion to the SIGMOD 2025 tutorial "Autotuning
// Systems: Techniques, Challenges, and Opportunities" (Kroth, Matusevych,
// Zhu — Microsoft Gray Systems Lab).
//
// The package re-exports the stable public surface of the internal
// packages:
//
//   - configuration spaces: typed knobs with bounds, log scale,
//     categoricals, conditionals, and constraints (internal/space);
//   - optimizers: random/grid search, simulated annealing, coordinate
//     descent, GP-based Bayesian optimization, SMAC, CMA-ES, PSO, and a
//     genetic algorithm, all behind one Suggest/Observe interface;
//   - the offline tuning loop with crash handling, early abort, fidelity
//     and parallel trials (internal/trial), backed by an asynchronous
//     scheduler with straggler hedging, panic isolation, and a crash-safe
//     write-ahead trial journal (internal/sched, internal/studystore);
//   - an online tuning agent with guardrails and pluggable policies
//     (Q-learning knob deltas, contextual hybrid bandits);
//   - simulated tunable systems — an analytic DBMS, a Redis/kernel model,
//     a Spark-like job — plus a real in-memory KV store and workload
//     generators for end-to-end experiments.
//
// Quickstart (see examples/quickstart for the runnable version):
//
//	sp := autotune.MustSpace(
//	    autotune.Float("x", -5, 10),
//	    autotune.Float("y", 0, 15),
//	)
//	opt, _ := autotune.NewOptimizer("bo", sp, 42)
//	best, val, _ := autotune.Minimize(opt, objective, 40)
package autotune

import (
	"context"
	"math/rand"

	"autotune/internal/bo"
	"autotune/internal/cloud"
	"autotune/internal/core"
	"autotune/internal/experiments"
	"autotune/internal/optimizer"
	"autotune/internal/resilience"
	"autotune/internal/sched"
	"autotune/internal/server"
	"autotune/internal/space"
	"autotune/internal/trial"
)

// Core configuration-space types.
type (
	// Space is a typed configuration space.
	Space = space.Space
	// Param is one tunable parameter.
	Param = space.Param
	// Config assigns values to parameter names.
	Config = space.Config
	// Constraint is a named cross-parameter validity predicate.
	Constraint = space.Constraint
)

// Optimization types.
type (
	// Optimizer is the Suggest/Observe black-box optimization contract.
	Optimizer = optimizer.Optimizer
	// Observation is one evaluated configuration.
	Observation = optimizer.Observation
	// BO is the Gaussian-process Bayesian optimizer, exposed concretely so
	// callers can pin a surrogate tier or read maintenance stats.
	BO = bo.BO
	// BOOptions configures NewBO (kernel, acquisition, surrogate tier
	// policy and switch thresholds, worker counts).
	BOOptions = bo.Options
	// SurrogatePolicy selects BO's surrogate tier: SurrogateAuto switches
	// dense → sparse → forest as history deepens; the other values pin one
	// tier.
	SurrogatePolicy = bo.SurrogatePolicy
	// SurrogateStats reports BO's active tier, every tier switch, and
	// per-tier maintenance counters.
	SurrogateStats = bo.SurrogateStats
)

// Surrogate tier policies for BOOptions.Surrogate / (*BO).SetSurrogate.
const (
	SurrogateAuto   = bo.SurrogateAuto
	SurrogateDense  = bo.SurrogateDense
	SurrogateSparse = bo.SurrogateSparse
	SurrogateLocal  = bo.SurrogateLocal
	SurrogateForest = bo.SurrogateForest
)

// NewBO constructs the GP Bayesian optimizer with explicit options and a
// deterministic seed — the typed alternative to NewOptimizer("bo", ...)
// when the surrogate tier, switch thresholds, or parallelism need tuning.
func NewBO(s *Space, seed int64, opts BOOptions) *BO {
	return bo.NewWith(s, rand.New(rand.NewSource(seed)), opts)
}

// ParseSurrogate maps a tier name ("auto", "dense", "sparse", "local",
// "forest") onto its SurrogatePolicy; unknown names return
// (SurrogateAuto, false).
func ParseSurrogate(name string) (SurrogatePolicy, bool) {
	return bo.ParseSurrogate(name)
}

// Tuning-loop types.
type (
	// Environment benchmarks configurations.
	Environment = trial.Environment
	// FuncEnv adapts a plain objective function to Environment.
	FuncEnv = trial.FuncEnv
	// TuneOptions configures a tuning run.
	TuneOptions = trial.Options
	// Study is the ask/tell core a tuning run drives: one optimizer, the
	// sink its observations are journaled to, and the observed history.
	Study = trial.Study
	// Report is a completed tuning session.
	Report = trial.Report
	// Result is one benchmark measurement.
	Result = trial.Result
	// TrialRecord is one completed trial inside a Report or journal.
	TrialRecord = trial.TrialRecord
	// JournalSink receives every completed trial before the optimizer
	// observes it (NewStudy's sink) — the write-ahead contract.
	JournalSink = trial.JournalSink
	// StudyJournal is a JournalSink backed by one study inside the
	// crash-safe segmented study store; its Records method reads that
	// study back for a resume.
	StudyJournal = trial.StudyJournal
)

// Scheduler types (internal/sched): the asynchronous trial pool behind
// TuneOptions.Scheduler — bounded workers mapped onto host slots, panic
// isolation, straggler hedging, quarantine-aware placement, and graceful
// drain, on a deterministic virtual clock by default.
type (
	// SchedulerOptions configures the asynchronous trial pool
	// (TuneOptions.Scheduler).
	SchedulerOptions = sched.Options
	// HostProfile describes one host slot's speed multiplier and
	// flakiness (SchedulerOptions.Hosts).
	HostProfile = cloud.HostProfile
)

// ErrPanic marks trials (or online-agent steps) whose user code panicked;
// the panic is recovered at the trial boundary, scored as a crash, and
// its value and stack ride on the error.
var ErrPanic = trial.ErrPanic

// NewStudy returns an empty study around an optimizer; a nil sink leaves
// its observations unjournaled. Tune runs it; Study.Replay first restores
// a journaled history for a resume.
var NewStudy = trial.NewStudy

// OpenStudyJournal opens (creating if needed) the crash-safe segmented
// study store at dir and returns a sink journaling trials into the named
// study.
var OpenStudyJournal = trial.OpenStudyJournal

// Resilient-execution types (internal/resilience): fault-tolerant trial
// execution with retries, deadlines, quarantine, and fault injection.
type (
	// ResilienceOptions configures Harden (retries, backoff, deadlines,
	// circuit breaking).
	ResilienceOptions = resilience.Options
	// Backoff computes exponential retry backoff with jitter.
	Backoff = resilience.Backoff
	// Breaker quarantines crashing config regions and flaky hosts.
	Breaker = resilience.Breaker
	// FaultInjectorOptions configures InjectFaults.
	FaultInjectorOptions = resilience.InjectorOptions
)

// ErrTransient marks retryable trial failures; return an error wrapping
// it from an Environment to opt into Harden's retry path.
var ErrTransient = resilience.ErrTransient

// Online-tuning types.
type (
	// OnlineSystem is a live system an Agent can steer.
	OnlineSystem = core.OnlineSystem
	// Agent is the online control loop with guardrails.
	Agent = core.Agent
	// Guardrails bounds online exploration and triggers rollback.
	Guardrails = core.Guardrails
	// Policy proposes configurations for the online loop.
	Policy = core.Policy
)

// ExperimentTable is one regenerated figure/table from the tutorial.
type ExperimentTable = experiments.Table

// Space construction.
var (
	// NewSpace validates parameters and builds a Space.
	NewSpace = space.New
	// MustSpace is NewSpace but panics on error (static literals).
	MustSpace = space.MustNew
	// Float declares a continuous parameter on [min, max].
	Float = space.Float
	// Int declares an integer parameter on [min, max].
	Int = space.Int
	// Categorical declares a categorical parameter.
	Categorical = space.Categorical
	// Bool declares a boolean parameter.
	Bool = space.Bool
)

// ErrExhausted is returned by finite strategies once no configurations
// remain.
var ErrExhausted = optimizer.ErrExhausted

// OptimizerNames lists the optimizers NewOptimizer accepts.
func OptimizerNames() []string { return core.OptimizerNames() }

// NewOptimizer constructs an optimizer by name ("random", "grid",
// "anneal", "coordinate", "bo", "bo-pi", "bo-lcb", "smac", "cmaes", "pso",
// "genetic") with a deterministic seed.
func NewOptimizer(name string, s *Space, seed int64) (Optimizer, error) {
	return core.NewOptimizer(name, s, rand.New(rand.NewSource(seed)))
}

// Minimize drives an optimizer against f for `budget` evaluations through
// the tuning loop (Tune over a FuncEnv) and returns the best configuration
// and value found.
func Minimize(o Optimizer, f func(Config) float64, budget int) (Config, float64, error) {
	rep, err := trial.Run(trial.NewStudy(o, nil), &trial.FuncEnv{F: f}, trial.Options{Budget: budget})
	if err != nil {
		return nil, 0, err
	}
	return rep.BestConfig, rep.BestValue, nil
}

// Tune runs the full-featured tuning loop (crash handling, parallelism,
// early abort, fidelity, write-ahead journaling) of a study against an
// environment until the study holds opts.Budget trials. A study that
// replayed a journal first resumes: its records count toward the budget
// and are never re-run.
func Tune(s *Study, env Environment, opts TuneOptions) (Report, error) {
	return trial.Run(s, env, opts)
}

// TuneContext is Tune with cancellation: the loop stops at the next batch
// boundary once ctx is cancelled; every finished trial is already in the
// study's sink when it has one.
func TuneContext(ctx context.Context, s *Study, env Environment, opts TuneOptions) (Report, error) {
	return trial.RunContext(ctx, s, env, opts)
}

// Harden wraps an environment with fault-tolerant execution: retry with
// exponential backoff + jitter for transient failures, per-trial
// deadlines, and circuit breaking for crash regions.
func Harden(env Environment, opts ResilienceOptions) Environment {
	return resilience.Wrap(env, opts)
}

// InjectFaults wraps an environment with configurable fault injection
// (transient errors, hangs, stragglers, corrupted results, flaky hosts)
// for testing tuning setups against realistic failure modes.
func InjectFaults(env Environment, opts FaultInjectorOptions) Environment {
	return resilience.NewInjector(env, opts)
}

// NewBreaker returns a circuit breaker with default thresholds for use in
// ResilienceOptions and FaultInjectorOptions.
func NewBreaker() *Breaker { return resilience.NewBreaker() }

// NewAgent builds an online tuning agent around a live system and policy.
func NewAgent(sys OnlineSystem, policy Policy, guard Guardrails, seed int64) (*Agent, error) {
	return core.NewAgent(sys, policy, guard, rand.New(rand.NewSource(seed)))
}

// NewRandomWalkPolicy returns the baseline online policy.
func NewRandomWalkPolicy(s *Space) Policy { return core.NewRandomWalkPolicy(s) }

// NewDeltaPolicy returns a Q-learning knob-delta policy over the named
// numeric knobs (all numeric knobs when names is empty).
func NewDeltaPolicy(s *Space, names []string) (Policy, error) {
	return core.NewDeltaPolicy(s, names)
}

// NewBanditPolicy returns a contextual hybrid-bandit policy over candidate
// configurations.
func NewBanditPolicy(arms []Config) (Policy, error) { return core.NewBanditPolicy(arms) }

// NewActorCriticPolicy returns the neural actor-critic knob-delta policy
// (QTune/CDBTune-style); stateDim must match the context length the online
// system reports.
func NewActorCriticPolicy(s *Space, names []string, stateDim int, seed int64) (Policy, error) {
	return core.NewActorCriticPolicy(s, names, stateDim, seed)
}

// NewSafeBOPolicy returns the OnlineTune-style safe-exploration policy: a
// GP surrogate gates proposals to a region whose pessimistic predicted
// loss stays within a margin of the incumbent.
func NewSafeBOPolicy(s *Space, seed int64) Policy { return core.NewSafeBOPolicy(s, seed) }

// Tuning-as-a-service types (internal/server): the autotuned daemon
// multiplexes thousands of concurrent studies over HTTP+JSON with
// exactly-once observes (fsynced before the ack, deduped by trial ID),
// deterministic resume after kill -9, admission control with 429 +
// Retry-After, and graceful drain on SIGTERM.
type (
	// Server is the tuning daemon: an http.Handler hosting the JSON API,
	// created by NewServer and typically run via Serve.
	Server = server.Server
	// ServerOptions configures NewServer/Serve (store directory,
	// admission limits, timeouts, default optimizer, session sharding,
	// group-commit mode).
	ServerOptions = server.Options
	// Client is the typed HTTP client for the daemon's JSON API.
	Client = server.Client
	// StudySpec declares a study over the wire: optimizer name, seed, and
	// the configuration space as ParamSpecs.
	StudySpec = server.StudySpec
	// ParamSpec is one parameter of a wire-declared space.
	ParamSpec = server.ParamSpec
	// SuggestedTrial is one (trial ID, config) pair from Client.Suggest.
	SuggestedTrial = server.SuggestedTrial
	// ServiceObservation reports one evaluated trial to the daemon; acked
	// observations are durable and replay-safe.
	ServiceObservation = server.Observation
)

// NewServer opens (or creates) the study store under
// ServerOptions.StoreDir, recovers every persisted study, and returns the
// daemon ready to mount as an http.Handler. Close (or Drain) seals the
// store on the way out.
var NewServer = server.New

// NewServerClient returns a Client for an autotuned daemon's base URL.
var NewServerClient = server.NewClient

// Serve runs the tuning daemon on addr until ctx is cancelled — wire
// SIGTERM to that — then drains gracefully: stop admitting, finish
// in-flight requests, seal the study log, return nil. It is the
// programmatic equivalent of the autotuned command.
func Serve(ctx context.Context, addr string, opts ServerOptions) error {
	s, err := server.New(opts)
	if err != nil {
		return err
	}
	return s.ListenAndServe(ctx, addr, nil)
}

// Experiments lists the reproduction experiment ids: the tutorial's
// figures/claims (F1..F22) and the framework's own ablations (A1..A6).
func Experiments() []string { return experiments.IDs() }

// RunExperiment regenerates one of the tutorial's figures/tables. Quick
// mode shrinks budgets for CI-scale runs.
func RunExperiment(id string, quick bool, seed int64) (ExperimentTable, error) {
	return experiments.Run(id, quick, seed)
}
