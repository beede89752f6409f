// Package core is the framework facade: a registry that constructs any of
// the library's optimizers by name, a Tuner that wires an optimizer to an
// environment for offline tuning (delegating to internal/trial), and an
// online Agent — the "side-car" architecture from tutorial slide 78 —
// that continuously adjusts a live system under guardrails (bounded
// exploration, regression rollback).
package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"autotune/internal/bo"
	"autotune/internal/cmaes"
	"autotune/internal/genetic"
	"autotune/internal/optimizer"
	"autotune/internal/pso"
	"autotune/internal/smac"
	"autotune/internal/space"
	"autotune/internal/trial"
)

// NewOptimizer constructs an optimizer by name. Supported names: random,
// grid, anneal, coordinate, bo (alias bo-ei), bo-pi, bo-lcb, smac, cmaes,
// pso, genetic.
func NewOptimizer(name string, s *space.Space, rng *rand.Rand) (optimizer.Optimizer, error) {
	switch name {
	case "random":
		return optimizer.NewRandom(s, rng), nil
	case "grid":
		return optimizer.NewGrid(s, 1024), nil
	case "anneal":
		return optimizer.NewAnneal(s, rng), nil
	case "coordinate":
		return optimizer.NewCoordinate(s, rng), nil
	case "bo", "bo-ei":
		return bo.New(s, rng), nil
	case "bo-pi":
		return bo.NewWith(s, rng, bo.Options{Acq: bo.NewPI(), OneHot: true, RefineIters: 40, FitHyperEvery: 10}), nil
	case "bo-lcb":
		return bo.NewWith(s, rng, bo.Options{Acq: bo.NewLCB(), OneHot: true, RefineIters: 40, FitHyperEvery: 10}), nil
	case "smac":
		return smac.New(s, rng), nil
	case "cmaes":
		return cmaes.New(s, rng), nil
	case "pso":
		return pso.New(s, rng), nil
	case "genetic":
		return genetic.New(s, rng), nil
	default:
		return nil, fmt.Errorf("core: unknown optimizer %q (have %v)", name, OptimizerNames())
	}
}

// OptimizerNames lists the registry's names, sorted.
func OptimizerNames() []string {
	names := []string{
		"random", "grid", "anneal", "coordinate",
		"bo", "bo-pi", "bo-lcb", "smac", "cmaes", "pso", "genetic",
	}
	sort.Strings(names)
	return names
}

// Tuner is the offline tuning facade: optimizer + environment + options.
type Tuner struct {
	Optimizer optimizer.Optimizer
	Env       trial.Environment
	Options   trial.Options
}

// NewTuner builds a Tuner with an optimizer constructed by name.
func NewTuner(optName string, env trial.Environment, opts trial.Options, rng *rand.Rand) (*Tuner, error) {
	o, err := NewOptimizer(optName, env.Space(), rng)
	if err != nil {
		return nil, err
	}
	return &Tuner{Optimizer: o, Env: env, Options: opts}, nil
}

// Run executes the tuning session.
func (t *Tuner) Run() (trial.Report, error) {
	return trial.Run(t.Optimizer, t.Env, t.Options)
}

// RunContext executes the tuning session with cancellation: the loop
// stops at the next batch boundary once ctx is cancelled; every finished
// trial is already in Options.Store when one is set.
func (t *Tuner) RunContext(ctx context.Context) (trial.Report, error) {
	return trial.RunContext(ctx, t.Optimizer, t.Env, t.Options)
}

// Resume continues a killed session from Options.Store, replaying
// recorded trials into the optimizer without re-running them.
func (t *Tuner) Resume(ctx context.Context) (trial.Report, error) {
	return trial.ResumeContext(ctx, t.Optimizer, t.Env, t.Options)
}
