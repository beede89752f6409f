package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"autotune/internal/stats"
)

// compare.go is -compare A.jsonl B.jsonl: the tool for "two sets of runs
// of the same code agree" and for a later issue's parent-versus-change
// table. Each file holds the full results of a set of timed runs, one
// JSON line per run, as -out writes them.

// readRuns loads a result file and groups its timed runs' metric values
// by workload, then metric.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		if r.Trace {
			continue // per-layer metrics have no bound to compare against
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s line %d: the %s run was not correct; its numbers cannot be compared", path, line, r.Workload)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for _, d := range endToEnd {
			if m, ok := r.Metrics[d.Name]; ok {
				out[r.Workload][d.Name] = append(out[r.Workload][d.Name], m.Value)
			}
		}
	}
	return out, sc.Err()
}

// spread is the distance between the first and third quartile as a
// share of the median; 0 for fewer than two runs. The quartiles are the
// ones Python's statistics.quantiles(values, n=4) gives (its default,
// exclusive method), because that is what the driver computes.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	med := stats.PercentileSorted(sorted, 50)
	if med == 0 {
		return 0
	}
	quartile := func(k int) float64 {
		m := len(sorted) + 1
		j := k * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(sorted)-1 {
			j = len(sorted) - 1
		}
		delta := float64(k*m - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return math.Abs((quartile(3) - quartile(1)) / med)
}

// verdict is one (workload, metric) row's outcome.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictImproved   verdict = "improved"
	verdictUnresolved verdict = "unresolved"
)

// judge compares set b against set a for one metric. worse is how much
// b's median is worse than a's as a share of a's (negative: better).
// Where either set's own spread is wider than the bound, the row is
// unresolved — unless every run of b reads better than every run of a.
func judge(d metricDef, a, b []float64) (worse float64, v verdict) {
	ma, mb := stats.Median(a), stats.Median(b)
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	if ma != 0 {
		worse = sign * (mb - ma) / ma
	}
	if spread(a) > d.Bound || spread(b) > d.Bound {
		allBetter := true
		for _, x := range b {
			for _, y := range a {
				allBetter = allBetter && sign*(x-y) < 0
			}
		}
		if allBetter {
			return worse, verdictImproved
		}
		return worse, verdictUnresolved
	}
	switch {
	case worse > d.Bound:
		return worse, verdictRegressed
	case worse < -d.Bound:
		return worse, verdictImproved
	}
	return worse, verdictOK
}

// compareFiles prints one row per (workload, end-to-end metric) present
// in both files and reports whether any row regressed.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(a))
	for name := range a {
		if _, ok := b[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return false, fmt.Errorf("%s and %s have no workload in common", pathA, pathB)
	}
	fmt.Fprintf(w, "A = %s, B = %s; delta is how much worse B's median is, as a share of A's\n", pathA, pathB)
	fmt.Fprintf(w, "%-16s %-24s %5s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "unit", "median A", "median B", "delta", "spreadA", "spreadB", "bound", "verdict")
	for _, name := range names {
		for _, d := range endToEnd {
			va, vb := a[name][d.Name], b[name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			worse, v := judge(d, va, vb)
			regressed = regressed || v == verdictRegressed
			fmt.Fprintf(w, "%-16s %-24s %5s %12.5g %12.5g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s (n=%d,%d)\n",
				name, d.Name, d.Unit, stats.Median(va), stats.Median(vb), worse*100,
				spread(va)*100, spread(vb)*100, d.Bound*100, v, len(va), len(vb))
		}
	}
	return regressed, nil
}
