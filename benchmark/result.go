package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"autotune/internal/stats"
)

// result.go is the one result schema: the contract's four keys plus the
// environment block, sample counts and check outcomes that make a number
// attributable.

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the client-seen metrics, in BENCHMARK.json's order. Every
// workload reports every one of them with tracing off; README.md says
// which part of the life-cycle each comes from on each workload, and how
// each bound was set from this box's measured spread.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.25},
	{"suggest_p50_ms", "ms", "lower", 0.25},
	{"suggest_p99_ms", "ms", "lower", 0.25},
	{"observe_p50_ms", "ms", "lower", 0.25},
	{"observe_p99_ms", "ms", "lower", 0.25},
	{"study_wall_s", "s", "lower", 0.25},
	{"recovery_s", "s", "lower", 0.25},
	{"daemon_cpu_ms_per_req", "ms", "lower", 0.25},
	{"daemon_rss_mb", "MB", "lower", 0.15},
	{"disk_bytes_per_observe", "B", "lower", 0.02},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one correctness check's outcome.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// env records where a number was measured.
type env struct {
	NumCPU          int    `json:"nproc"`
	LoadGenProcs    int    `json:"loadgen_gomaxprocs"`
	DaemonProcs     int    `json:"daemon_gomaxprocs"`
	GoVersion       string `json:"go_version"`
	Commit          string `json:"git_commit"`
	Dirty           bool   `json:"git_dirty"`
	StoreFilesystem string `json:"store_filesystem"`
}

// result is one run of one workload.
type result struct {
	Env       env                    `json:"env"`
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Sizes     sizes                  `json:"sizes"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Samples is the sample count beside each timing.
	Samples map[string]int `json:"samples,omitempty"`
	// Info are diagnostics outside the contract (regret, tail support).
	Info   map[string]float64 `json:"info,omitempty"`
	Checks []check            `json:"checks"`
	Errors []string           `json:"errors,omitempty"`

	defs []metricDef
}

func newResult(defs []metricDef) *result {
	return &result{
		Metrics: map[string]metricValue{}, Samples: map[string]int{}, Info: map[string]float64{},
		defs: defs,
	}
}

// set records a metric; the name must be one the run is meant to report.
func (r *result) set(name string, v float64) {
	for _, d := range r.defs {
		if d.Name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("benchmark bug: metric " + name + " is not declared")
}

func (r *result) setSamples(name string, v float64, n int) {
	r.set(name, v)
	r.Samples[name] = n
}

// setLatency reports one operation's client-seen latency as its median
// and its 99th percentile (see steadyTail) with the sample count beside
// them, and notes in Info the highest percentile that count supports.
// ms is in completion order.
func (r *result) setLatency(op string, ms []float64) {
	if len(ms) == 0 {
		r.check(op+" latency has samples", false, "no completed "+op+" request to take a latency from")
		return
	}
	r.setSamples(op+"_p50_ms", stats.Median(ms), len(ms))
	r.setSamples(op+"_p99_ms", steadyTail(ms, 99), len(ms))
	if p, ok := tailPercentile(len(ms)); ok && p < 99 {
		r.Info[fmt.Sprintf("%s_p%.0f_ms", op, p)] = stats.Percentile(ms, p)
	}
}

func (r *result) check(name string, ok bool, detail string) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: detail})
}

// addPhase folds a phase's request accounting into the run's.
func (r *result) addPhase(ph *phase) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	r.Attempted += ph.attempted
	r.Failed += ph.failed
	r.Errors = append(r.Errors, ph.errs...)
}

// finish decides Correct: every declared metric present, every check
// passed, no request failed.
func (r *result) finish() {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	for _, d := range r.defs {
		if _, ok := r.Metrics[d.Name]; !ok {
			r.check("metric "+d.Name+" reported", false, "missing")
		}
	}
	for _, c := range r.Checks {
		r.Correct = r.Correct && c.OK
	}
}

// contractLine is the last line of standard output.
func (r *result) contractLine() ([]byte, error) {
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, attempted, r.Failed, r.Metrics})
}

// print writes every metric by name with its unit, then the checks.
func (r *result) print(w io.Writer) {
	mode := "timed run, tracing off"
	if r.Trace {
		mode = "traced run"
	}
	fmt.Fprintf(w, "== %s (%s) seed %d ==\n", r.Workload, mode, r.Seed)
	fmt.Fprintf(w, "env: nproc %d, load generator GOMAXPROCS %d, daemon GOMAXPROCS %d, %s, commit %s (dirty %v), store on %s, C = %d\n",
		r.Env.NumCPU, r.Env.LoadGenProcs, r.Env.DaemonProcs, r.Env.GoVersion, r.Env.Commit, r.Env.Dirty, r.Env.StoreFilesystem, r.Sizes.Clients)
	for _, d := range r.defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			fmt.Fprintf(w, "  %-42s missing\n", d.Name)
			continue
		}
		line := fmt.Sprintf("  %-42s %14.6g %-6s", d.Name, m.Value, m.Unit)
		if n, ok := r.Samples[d.Name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	for _, k := range sortedKeys(r.Info) {
		fmt.Fprintf(w, "  (%s %.6g)\n", k, r.Info[k])
	}
	for _, c := range r.Checks {
		state := "ok"
		if !c.OK {
			state = "FAILED"
		}
		fmt.Fprintf(w, "  check %-6s %s: %s\n", state, c.Name, c.Detail)
	}
	fmt.Fprintf(w, "  requests attempted %d, failed %d; correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
}

// readEnv fills the environment block. dir is where stores will live.
func readEnv(dir string) env {
	e := env{
		NumCPU: runtime.NumCPU(), LoadGenProcs: runtime.GOMAXPROCS(0), DaemonProcs: daemonProcs(),
		GoVersion: runtime.Version(), Commit: "unknown", StoreFilesystem: filesystemOf(dir),
	}
	// The driver's checkout is not a git repository; "unknown" is the
	// honest answer there.
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			e.Dirty = len(st) > 0
		}
	}
	return e
}

// filesystemOf names the filesystem holding dir from statfs's magic.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53: "ext4", 0x58465342: "xfs", 0x9123683e: "btrfs", 0x01021994: "tmpfs",
		0x794c7630: "overlayfs", 0x6969: "nfs", 0x2fc12fc1: "zfs", 0x65735546: "fuse",
		0xf2f52010: "f2fs", 0x01021997: "9p", 0x6a656a63: "fakeowner",
	}
	if name, ok := names[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// appendJSONLine appends the full result to path as one JSON line; a set
// of runs is a file of such lines, which -compare reads.
func (r *result) appendJSONLine(path string) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		//autolint:ignore droppederr the write error is what the caller needs
		f.Close()
		return err
	}
	return f.Close()
}

// sortedKeys returns m's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
