package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"autotune/internal/experiments"
)

// runObserveBench runs the store-saturation benchmark: the
// per-caller-fsync baseline against group commit under the same concurrent
// append load, durability matched, same disk. It prints the table,
// optionally writes JSON (the "store" part of the frozen BENCH_9.json
// schema), and optionally enforces the amortization ratio floor — a ratio
// travels between machines; durable observes per second through the whole
// daemon are the repo benchmark's observe-durable workload.
func runObserveBench(quick bool, outPath string, minRatio float64) error {
	writers, measure := 64, 5*time.Second
	if quick {
		writers, measure = 16, time.Second
	}
	start := time.Now()
	st, err := experiments.StoreSaturation(writers, measure)
	if err != nil {
		return fmt.Errorf("observebench: %w", err)
	}
	tab := experiments.Table{
		ID:    "B9",
		Title: "Durable append throughput: per-caller fsync vs group commit",
		Claim: "a leader-drained shared fsync amortizes the durability barrier across every concurrent appender without weakening ack-after-fsync",
		Headers: []string{"arm", "writers", "wall (s)", "append/s",
			"fsyncs", "mean group", "max group"},
		Notes: fmt.Sprintf("store ratio %.1fx; baseline is the same commit path forced to groups of one", st.Ratio),
	}
	tab.Rows = append(tab.Rows,
		[]string{"per-caller-fsync", fmt.Sprintf("%d", st.Writers),
			fmt.Sprintf("%.2f", st.Seconds), fmt.Sprintf("%.0f", st.BaselinePerSec),
			fmt.Sprintf("%d", st.BaselineFsyncs), "1.0", "1"},
		[]string{"group-commit", fmt.Sprintf("%d", st.Writers),
			fmt.Sprintf("%.2f", st.Seconds), fmt.Sprintf("%.0f", st.GroupPerSec),
			fmt.Sprintf("%d", st.GroupFsyncs), fmt.Sprintf("%.1f", st.GroupMean),
			fmt.Sprintf("%d", st.GroupMax)},
	)
	printTable(tab, time.Since(start))
	if outPath != "" {
		type result struct {
			Store experiments.StoreSaturationResult `json:"store"`
		}
		doc := struct {
			Benchmark string `json:"benchmark"`
			Quick     bool   `json:"quick"`
			Result    result `json:"result"`
		}{"durable-observe-throughput", quick, result{st}}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", outPath)
	}
	if minRatio > 0 && st.Ratio < minRatio {
		return fmt.Errorf("observebench: store group-commit ratio %.1fx, want >= %.0fx", st.Ratio, minRatio)
	}
	return nil
}
