package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"autotune/internal/studystore/errfs"
)

// requestStream renders everything about a run that the load generator
// decides before the daemon answers: every create body, restart's
// preload bodies, each client's operation schedule, and the values the
// objectives will report for the first trials of every study.
func requestStream(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	sz := sizesFor(name, refSeconds, true)
	p, err := newPlan(name, seed, sz)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range p.allStudies() {
		if err := enc.Encode(struct {
			Study string
			Spec  any
		}{s.Name, s.Spec}); err != nil {
			t.Fatal(err)
		}
		if name == wlRestart {
			if err := enc.Encode(preload(s, 4)); err != nil {
				t.Fatal(err)
			}
		}
		cfg := s.sp.Default()
		for trial := int64(0); trial < 4; trial++ {
			fmt.Fprintf(&b, "%s %d %v\n", s.Name, trial, s.eval(cfg, trial))
		}
	}
	for c := 0; c < sz.Clients; c++ {
		switch name {
		case wlFleet:
			for q := c; q < sz.FleetRequests; q += sz.Clients {
				fmt.Fprintf(&b, "client %d suggest %s %d\n", c, p.random[q%len(p.random)].Name, sz.FleetCount)
			}
		case wlDurable:
			for j := c; j < len(p.random); j += sz.Clients {
				fmt.Fprintf(&b, "client %d round on %s\n", c, p.random[j].Name)
			}
		}
	}
	return b.Bytes()
}

func TestSameSeedSameRequestStream(t *testing.T) {
	for _, name := range workloadNames {
		a, b, c := requestStream(t, name, 7), requestStream(t, name, 7), requestStream(t, name, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different request streams", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", name)
		}
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{99, 0, false}, {100, 90, true}, {199, 90, true}, {200, 95, true},
		{999, 95, true}, {1000, 99, true}, {50000, 99, true},
	} {
		p, ok := tailPercentile(tc.n)
		if p != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, p, ok, tc.want, tc.ok)
		}
	}
}

func TestSteadyTailIgnoresOneBadSlice(t *testing.T) {
	ms := make([]float64, 8*tailSliceMin)
	for i := range ms {
		ms[i] = 1
	}
	// One hiccup: 5 % of one slice is a hundred times slower. The plain
	// p99 of a slice moves; the median over slices does not.
	for i := 0; i < tailSliceMin/20; i++ {
		ms[3*tailSliceMin+i] = 100
	}
	if got := steadyTail(ms, 99); got != 1 {
		t.Errorf("steadyTail = %v, want 1", got)
	}
	// Too few samples for two slices: the plain percentile.
	if got := steadyTail([]float64{1, 2, 3}, 50); got != 2 {
		t.Errorf("steadyTail of 3 samples = %v, want 2", got)
	}
}

func TestPhaseReduceDropsWarmup(t *testing.T) {
	ph := newPhase()
	for i := 0; i < 100; i++ {
		ph.suggests = append(ph.suggests, sample{end: time.Duration(i+1) * time.Second, ms: float64(i)})
	}
	ph.attempted = 100
	st := ph.reduce()
	// The first 5 completions are warm-up; 95 requests over 94 seconds.
	if st.requests != 95 || st.seconds != 94 || st.suggestMS[0] != 5 {
		t.Errorf("reduce: requests %d over %v s, first kept sample %v", st.requests, st.seconds, st.suggestMS[0])
	}
}

func TestTimingFSPassesBytesAndErrorsThrough(t *testing.T) {
	var writes, syncs int
	mem := errfs.New()
	fs := &timingFS{FS: mem, onWrite: func(time.Duration, int) { writes++ }, onSync: func(time.Duration) { syncs++ }}
	if err := fs.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("d/a")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.Write([]byte("hello ")); n != 6 || err != nil {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	// The next mutating operation fails: errfs lands half the bytes and
	// reports ErrInjected; both must come through unchanged.
	mem.FailAt(1)
	if n, err := f.Write([]byte("world!")); n != 3 || !errors.Is(err, errfs.ErrInjected) {
		t.Fatalf("faulted Write = %d, %v; want 3, ErrInjected", n, err)
	}
	mem.FailAt(1)
	if err := f.Sync(); !errors.Is(err, errfs.ErrInjected) {
		t.Fatalf("faulted Sync = %v; want ErrInjected", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := fs.OpenAppend("d/a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write([]byte("?")); err != nil {
		t.Fatal(err)
	}
	if got := string(mem.Files()["d/a"]); got != "hello wor?" {
		t.Errorf("file holds %q, want %q", got, "hello wor?")
	}
	if writes != 3 || syncs != 2 {
		t.Errorf("timed %d writes and %d syncs, want 3 and 2", writes, syncs)
	}
	if _, err := fs.OpenAppend("d/missing"); err == nil {
		t.Error("OpenAppend of a missing file succeeded")
	}
}

func TestSpanSelfTime(t *testing.T) {
	us := func(n int64) int64 { return n * int64(time.Microsecond) }
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "client.request", Op: "observe", Req: 1, Start: 0, End: us(300)},
		{ID: 2, Parent: 1, Name: "server.handle", Op: "observe", Req: 1, Start: us(50), End: us(250)},
		// Shadow spans run after the request, not inside its interval.
		{ID: 3, Parent: 2, Name: "studystore.append", Op: "observe", Req: 1, Start: us(310), End: us(460)},
		{ID: 4, Parent: 3, Name: "fs.write", Op: "observe", Req: 1, Start: us(315), End: us(325)},
		{ID: 5, Parent: 3, Name: "fs.fsync", Op: "observe", Req: 1, Start: us(325), End: us(455)},
		{ID: 6, Parent: 2, Name: "optimizer.observe", Op: "observe", Req: 1, Start: us(460), End: us(470)},
	}
	tb := tr.table()
	for _, tc := range []struct {
		got  []float64
		want float64
		what string
	}{
		{tb.dur("server.handle", "observe"), 200, "handler duration"},
		{tb.self("server.handle", "observe"), 40, "handler self = 200 - 150 - 10"},
		{tb.childSum("server.handle", "observe"), 160, "handler children"},
		{tb.self("studystore.append", ""), 10, "store self = 150 - 10 - 130"},
		{tb.self("client.request", ""), 100, "client self = 300 - 200"},
		{tb.dur("server.handle", "suggest"), 0, "no suggest spans"},
	} {
		if got := medianOr0(tc.got); got != tc.want {
			t.Errorf("%s: %v us, want %v", tc.what, got, tc.want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "latency", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		d    metricDef
		a, b []float64
		want verdict
	}{
		{lower, []float64{10, 10.1, 9.9}, []float64{10.2, 10.3, 10.1}, verdictOK},
		{lower, []float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, verdictRegressed},
		{lower, []float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, verdictImproved},
		{higher, []float64{100, 101, 99}, []float64{80, 81, 79}, verdictRegressed},
		{higher, []float64{100, 101, 99}, []float64{120, 121, 119}, verdictImproved},
		// Spread wider than the bound: unresolved, unless every run of B
		// beats every run of A.
		{lower, []float64{8, 10, 13}, []float64{9, 10.5, 12}, verdictUnresolved},
		{lower, []float64{8, 10, 13}, []float64{5, 6, 7}, verdictImproved},
	} {
		if _, got := judge(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", tc.d.Better, tc.a, tc.b, got, tc.want)
		}
	}
}

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string                     `json:"command"`
	Paths      []string                     `json:"paths"`
	RunSeconds int                          `json:"run_seconds"`
	Workloads  []struct{ Name, Why string } `json:"workloads"`
	EndToEnd   []metricDef                  `json:"end_to_end"`
	PerLayer   []metricDef                  `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, the program's reference length is %d", bf.RunSeconds, refSeconds)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, the program has %v", names, workloadNames)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the program's list:\n%v\n%v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's list:\n%v\n%v", bf.PerLayer, perLayer)
	}
}

// TestQuickSmoke runs all four workloads at tiny counts against a real
// daemon subprocess, and one traced run (restart, which touches both the
// subprocess and the in-process paths).
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns the daemon")
	}
	ctx := context.Background()
	dir := t.TempDir()
	bin, err := buildDaemon(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := options{seed: 3, seconds: refSeconds, quick: true, workdir: dir, out: filepath.Join(dir, "out.jsonl")}
	stdout := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	run := func(name string, traced bool) *result {
		os.Stdout = null // the result table is not test output
		defer func() { os.Stdout = stdout }()
		res, err := runOne(ctx, opts, name, traced, bin, dir)
		if err != nil {
			t.Fatalf("%s (traced %v): %v", name, traced, err)
		}
		return res
	}
	for _, name := range workloadNames {
		res := run(name, false)
		if !res.Correct {
			t.Errorf("%s: not correct: checks %+v errors %v", name, res.Checks, res.Errors)
		}
		for _, d := range endToEnd {
			if _, ok := res.Metrics[d.Name]; !ok {
				t.Errorf("%s: metric %s missing", name, d.Name)
			}
		}
	}
	res := run(wlRestart, true)
	if !res.Correct {
		t.Errorf("traced restart: not correct: checks %+v errors %v", res.Checks, res.Errors)
	}
	if _, err := os.Stat(filepath.Join(dir, "trace-"+wlRestart+".json")); err != nil {
		t.Errorf("trace file: %v", err)
	}
	// The set agrees with itself.
	var table bytes.Buffer
	regressed, err := compareFiles(&table, opts.out, opts.out)
	if err != nil || regressed {
		t.Errorf("comparing a result file with itself: regressed %v, err %v\n%s", regressed, err, table.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			t.Errorf("run directory %s was not removed", e.Name())
		}
	}
}
