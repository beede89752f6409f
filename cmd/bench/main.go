// Command bench regenerates the tutorial's figures and tables (experiments
// F1-F20, see DESIGN.md and EXPERIMENTS.md) and prints them as Markdown.
//
// Usage:
//
//	bench                      # run everything in full mode
//	bench -experiment F3       # one experiment
//	bench -quick               # CI-scale budgets
//	bench -suggestbench -out BENCH_4.json -minspeedup 10
//	                           # suggest-path scaling benchmark (PR 4)
//	bench -replay -out BENCH_6.json -minreplay 100000
//	                           # study-store write/replay benchmark (PR 6)
//	bench -scalebench -out BENCH_8.json -minspeedup 10 -maxregret 1.5
//	                           # surrogate tier scaling benchmark (PR 9)
//	bench -scalebench -quick -cpuprofile cpu.pprof -memprofile mem.pprof
//	bench -observebench -minobserveratio 10
//	                           # store saturation: group commit vs per-caller fsync (PR 10)
//
// Service throughput and latency (the former -serve and the service arms of
// -observebench) are measured by the repo benchmark, `go run ./benchmark`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"autotune/internal/experiments"
)

func main() {
	var (
		id        = flag.String("experiment", "all", "experiment id (F1..F20) or 'all'")
		quick     = flag.Bool("quick", false, "shrink budgets and seed counts")
		seed      = flag.Int64("seed", 20250706, "random seed")
		suggest   = flag.Bool("suggestbench", false, "run the suggest-path scaling benchmark instead of the experiment suite")
		replay    = flag.Bool("replay", false, "run the study-store write/replay benchmark instead of the experiment suite")
		scale     = flag.Bool("scalebench", false, "run the surrogate tier scaling benchmark (BENCH_8) instead of the experiment suite")
		observeB  = flag.Bool("observebench", false, "run the store-saturation benchmark (group commit vs per-caller fsync) instead of the experiment suite")
		out       = flag.String("out", "", "write benchmark results to this JSON file")
		minSpeed  = flag.Float64("minspeedup", 0, "fail unless the benchmark speedup reaches this factor (0 disables)")
		minReplay = flag.Float64("minreplay", 0, "with -replay: fail unless replay sustains this many records/sec (0 disables)")
		minObsRat = flag.Float64("minobserveratio", 0, "with -observebench: fail unless group-commit beats the per-caller-fsync baseline by this factor at the store (0 disables)")
		maxRegret = flag.Float64("maxregret", 0, "with -scalebench: fail if the tiered/dense regret ratio exceeds this (0 disables)")
		boHistCap = flag.Int("bo-history-cap", 0, "with -scalebench: deep-history study size (0 = default)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memProf == "" {
			return
		}
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	if *scale {
		if err := runScaleBench(*quick, *seed, *out, *minSpeed, *maxRegret, *boHistCap); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *observeB {
		if err := runObserveBench(*quick, *out, *minObsRat); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *replay {
		if err := runReplayBench(*quick, *out, *minReplay); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *suggest {
		if err := runSuggestBench(*quick, *seed, *out, *minSpeed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	ids := experiments.IDs()
	if *id != "all" {
		ids = []string{*id}
	}
	failed := 0
	for _, eid := range ids {
		start := time.Now()
		tab, err := experiments.Run(eid, *quick, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", eid, err)
			failed++
			continue
		}
		printTable(tab, time.Since(start))
	}
	if failed > 0 {
		os.Exit(1)
	}
}

func printTable(t experiments.Table, took time.Duration) {
	fmt.Printf("## %s — %s\n\n", t.ID, t.Title)
	fmt.Printf("**Claim:** %s\n\n", t.Claim)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Printf("| %s |\n", strings.Join(parts, " | "))
	}
	printRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	fmt.Printf("\n**Observed:** %s\n\n_(%s)_\n\n", t.Notes, took.Round(time.Millisecond))
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// runSuggestBench runs the suggest-path scaling benchmark (incremental
// surrogate vs full refit), prints it, optionally writes JSON, and
// optionally enforces a minimum surrogate speedup at the largest history.
func runSuggestBench(quick bool, seed int64, outPath string, minSpeedup float64) error {
	start := time.Now()
	points, err := experiments.SuggestScaling(quick, seed)
	if err != nil {
		return fmt.Errorf("suggestbench: %w", err)
	}
	tab := experiments.Table{
		ID:    "B4",
		Title: "Suggest-path scaling: incremental surrogate vs full refit",
		Claim: "rank-1 Cholesky updates make absorbing an observation O(n²) instead of O(n³)",
		Headers: []string{"n", "surrogate full (ms)", "surrogate incr (ms)", "speedup",
			"suggest full (ms)", "suggest incr (ms)", "speedup"},
		Notes: "surrogate columns isolate maintenance; suggest columns share acquisition-search cost",
	}
	ms := func(ns float64) string { return fmt.Sprintf("%.3f", ns/1e6) }
	for _, p := range points {
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprintf("%d", p.N),
			ms(p.SurrogateFullNs), ms(p.SurrogateIncNs), fmt.Sprintf("%.1fx", p.SurrogateRatio),
			ms(p.SuggestFullNs), ms(p.SuggestIncNs), fmt.Sprintf("%.1fx", p.SuggestRatio),
		})
	}
	printTable(tab, time.Since(start))
	if outPath != "" {
		doc := struct {
			Benchmark string                            `json:"benchmark"`
			Quick     bool                              `json:"quick"`
			Seed      int64                             `json:"seed"`
			Points    []experiments.SuggestScalingPoint `json:"points"`
		}{"suggest-path-scaling", quick, seed, points}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", outPath)
	}
	if minSpeedup > 0 {
		last := points[len(points)-1]
		if last.SurrogateRatio < minSpeedup {
			return fmt.Errorf("suggestbench: surrogate speedup at n=%d is %.1fx, want >= %.0fx",
				last.N, last.SurrogateRatio, minSpeedup)
		}
	}
	return nil
}
