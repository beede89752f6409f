// Command bench regenerates the tutorial's figures and tables (experiments
// F1-F22) and the framework's own ablations (A1-A6), see DESIGN.md and
// EXPERIMENTS.md, and prints them as Markdown.
//
// Usage:
//
//	bench                      # run everything in full mode
//	bench -experiment F3       # one experiment
//	bench -quick               # CI-scale budgets
//
// Every table is a pure function of (-quick, -seed). Anything timed — the
// service end to end and each layer under it — is measured by the repo
// benchmark, `go run ./benchmark`.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"autotune/internal/experiments"
)

func main() {
	var (
		id    = flag.String("experiment", "all", "experiment id (F1..F22, A1..A6) or 'all'")
		quick = flag.Bool("quick", false, "shrink budgets and seed counts")
		seed  = flag.Int64("seed", 20250706, "random seed")
	)
	flag.Parse()

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
