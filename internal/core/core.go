// Package core is the framework facade: a registry that constructs any of
// the library's optimizers by name (offline tuning runs them through
// internal/trial), and an online Agent — the "side-car" architecture from
// tutorial slide 78 — that continuously adjusts a live system under
// guardrails (bounded exploration, regression rollback).
package core

import (
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
