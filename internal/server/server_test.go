package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"autotune/internal/core"
	"autotune/internal/optimizer"
	"autotune/internal/space"
	"autotune/internal/studystore"
	"autotune/internal/trial"
)

// testSpec is a small mixed space exercising every parameter kind.
func testSpec(opt string, seed int64) StudySpec {
	return StudySpec{
		Optimizer: opt,
		Seed:      seed,
		Space: []ParamSpec{
			{Name: "cache_mb", Kind: "int", Min: 64, Max: 4096},
			{Name: "timeout", Kind: "float", Min: 0.1, Max: 10, Log: true},
			{Name: "policy", Kind: "categorical", Values: []string{"lru", "fifo", "arc"}},
			{Name: "compress", Kind: "bool"},
		},
	}
}

// newTestServer serves a fresh store dir over httptest.
func newTestServer(t *testing.T, opts Options) (*Server, *Client) {
	t.Helper()
	if opts.StoreDir == "" {
		opts.StoreDir = t.TempDir()
	}
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(s)
	t.Cleanup(hs.Close)
	t.Cleanup(func() { _ = s.Close() })
	return s, NewClientHTTP(hs.URL, hs.Client())
}

func mustCreate(t *testing.T, c *Client, study string, spec StudySpec) {
	t.Helper()
	if _, err := c.CreateStudy(context.Background(), study, spec); err != nil {
		t.Fatalf("create %s: %v", study, err)
	}
}

// observeSuggested runs one suggest/observe round and returns the trials.
func observeSuggested(t *testing.T, c *Client, study string, n int) []SuggestedTrial {
	t.Helper()
	ctx := context.Background()
	sugg, err := c.Suggest(ctx, study, n)
	if err != nil {
		t.Fatalf("suggest %s: %v", study, err)
	}
	obs := make([]Observation, len(sugg))
	for i, tr := range sugg {
		obs[i] = Observation{
			Trial: tr.Trial, Config: tr.Config,
			Value:       float64(tr.Trial%7) - float64(tr.Trial)/100,
			CostSeconds: 1 + float64(tr.Trial%3),
			Metrics:     map[string]float64{"p99_ms": 10 + float64(tr.Trial%5)},
		}
	}
	res, err := c.Observe(ctx, study, obs...)
	if err != nil {
		t.Fatalf("observe %s: %v", study, err)
	}
	if res.Acked != len(obs) || res.Duplicates != 0 {
		t.Fatalf("observe %s: acked %d dups %d, want %d/0", study, res.Acked, res.Duplicates, len(obs))
	}
	return sugg
}

func TestEndToEnd(t *testing.T) {
	_, c := newTestServer(t, Options{})
	ctx := context.Background()

	created, err := c.CreateStudy(ctx, "e2e", testSpec("random", 42))
	if err != nil || !created {
		t.Fatalf("create: created=%v err=%v", created, err)
	}
	// Identical re-create is idempotent.
	created, err = c.CreateStudy(ctx, "e2e", testSpec("random", 42))
	if err != nil || created {
		t.Fatalf("re-create: created=%v err=%v, want false/nil", created, err)
	}
	// A different spec under the same name conflicts.
	_, err = c.CreateStudy(ctx, "e2e", testSpec("random", 43))
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict {
		t.Fatalf("spec mismatch: %v, want 409", err)
	}

	observeSuggested(t, c, "e2e", 8)
	best, err := c.Best(ctx, "e2e")
	if err != nil || !best.Found || best.Observed != 8 {
		t.Fatalf("best: %+v err=%v", best, err)
	}
	if _, ok := best.Config["cache_mb"]; !ok {
		t.Fatalf("best config missing knob: %v", best.Config)
	}
	trs, err := c.Trials(ctx, "e2e")
	if err != nil || len(trs) != 8 {
		t.Fatalf("trials: %d err=%v", len(trs), err)
	}
	infos, err := c.Studies(ctx)
	if err != nil || len(infos) != 1 || infos[0].Trials != 8 || infos[0].ReadOnly {
		t.Fatalf("list: %+v err=%v", infos, err)
	}
	if err := c.Healthy(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if err := c.Ready(ctx); err != nil {
		t.Fatalf("readyz: %v", err)
	}
	if _, err := c.Suggest(ctx, "nope", 1); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("unknown study: %v, want 404", err)
	}
}

func TestObserveIdempotent(t *testing.T) {
	_, c := newTestServer(t, Options{})
	ctx := context.Background()
	mustCreate(t, c, "idem", testSpec("random", 1))
	sugg := observeSuggested(t, c, "idem", 4)

	// Retry the exact batch: all duplicates, nothing acked twice.
	obs := make([]Observation, len(sugg))
	for i, tr := range sugg {
		obs[i] = Observation{Trial: tr.Trial, Config: tr.Config, Value: 99}
	}
	res, err := c.Observe(ctx, "idem", obs...)
	if err != nil || res.Acked != 0 || res.Duplicates != 4 {
		t.Fatalf("retry: %+v err=%v, want 0 acked 4 dups", res, err)
	}
	// The duplicate's bogus value must not have moved the incumbent.
	best, err := c.Best(ctx, "idem")
	if err != nil || best.Value == 99 {
		t.Fatalf("best after dup: %+v err=%v", best, err)
	}
	// A batch with an in-batch repeat acks it once.
	one := []Observation{
		{Trial: 100, Config: sugg[0].Config, Value: 1},
		{Trial: 100, Config: sugg[0].Config, Value: 2},
	}
	res, err = c.Observe(ctx, "idem", one...)
	if err != nil || res.Acked != 1 || res.Duplicates != 1 {
		t.Fatalf("in-batch dup: %+v err=%v", res, err)
	}
}

// TestCrashRecoveryExactlyOnce simulates kill -9 by abandoning the server
// without sealing (Store.Close leaves the tail exactly as a crash would)
// and asserts the restarted server holds every acked observation exactly
// once and resumes suggesting deterministically.
func TestCrashRecoveryExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	s1, err := New(Options{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	h1 := httptest.NewServer(s1)
	c1 := NewClientHTTP(h1.URL, h1.Client())
	for i, opt := range []string{"random", "bo", "anneal"} {
		study := fmt.Sprintf("crash-%s", opt)
		mustCreate(t, c1, study, testSpec(opt, int64(100+i)))
		observeSuggested(t, c1, study, 5)
	}
	// Capture the post-crash reference: what each study's optimizer
	// suggests after a pure replay of the durable history.
	want := map[string]string{}
	for i, opt := range []string{"random", "bo", "anneal"} {
		study := fmt.Sprintf("crash-%s", opt)
		trs, err := c1.Trials(ctx, study)
		if err != nil {
			t.Fatal(err)
		}
		spec := testSpec(opt, int64(100+i))
		sp, err := buildSpace(spec.Space)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.NewOptimizer(opt, sp, rand.New(rand.NewSource(spec.Seed)))
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range trs {
			cfg, err := sp.Normalize(tr.Config)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.Observe(cfg, tr.Value); err != nil {
				t.Fatal(err)
			}
		}
		// Mirror the server's batch-vs-serial suggest dispatch exactly.
		var stream []space.Config
		if bs, ok := ref.(optimizer.BatchSuggester); ok {
			stream, err = bs.SuggestN(3)
			if err != nil {
				t.Fatal(err)
			}
		} else {
			for k := 0; k < 3; k++ {
				cfg, err := ref.Suggest()
				if err != nil {
					t.Fatal(err)
				}
				stream = append(stream, cfg)
			}
		}
		want[study] = mustJSON(t, stream)
	}
	h1.Close()
	if err := s1.crashClose(); err != nil { // crash: no seal, no drain
		t.Fatal(err)
	}

	// Two sequential restarts must agree with the reference and with each
	// other, bit for bit.
	for restart := 0; restart < 2; restart++ {
		s2, err := New(Options{StoreDir: dir})
		if err != nil {
			t.Fatalf("restart %d: %v", restart, err)
		}
		h2 := httptest.NewServer(s2)
		c2 := NewClientHTTP(h2.URL, h2.Client())
		for _, opt := range []string{"random", "bo", "anneal"} {
			study := fmt.Sprintf("crash-%s", opt)
			trs, err := c2.Trials(ctx, study)
			if err != nil {
				t.Fatalf("restart %d %s: %v", restart, study, err)
			}
			if len(trs) != 5 {
				t.Fatalf("restart %d %s: %d trials, want 5 (exactly once)", restart, study, len(trs))
			}
			seen := map[int]bool{}
			for _, tr := range trs {
				if seen[tr.ID] {
					t.Fatalf("restart %d %s: duplicate trial %d", restart, study, tr.ID)
				}
				seen[tr.ID] = true
			}
			sugg, err := c2.Suggest(ctx, study, 3)
			if err != nil {
				t.Fatalf("restart %d %s suggest: %v", restart, study, err)
			}
			var stream []map[string]any
			for _, tr := range sugg {
				stream = append(stream, tr.Config)
			}
			if got := mustJSON(t, stream); got != normalizeJSON(t, want[study]) {
				t.Fatalf("restart %d %s: suggest stream diverged\n got %s\nwant %s",
					restart, study, got, want[study])
			}
		}
		h2.Close()
		if err := s2.crashClose(); err != nil {
			t.Fatal(err)
		}
	}
}

// mustJSON pins a value's canonical JSON for bitwise comparison.
func mustJSON(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// normalizeJSON round-trips through map[string]any so int64 vs float64
// representations of the same number compare equal.
func normalizeJSON(t *testing.T, s string) string {
	t.Helper()
	var v any
	if err := json.Unmarshal([]byte(s), &v); err != nil {
		t.Fatal(err)
	}
	return mustJSON(t, v)
}

// panicOptimizer blows up on demand to test fault isolation.
type panicOptimizer struct{ onSuggest, onObserve bool }

func (p panicOptimizer) Suggest() (space.Config, error) {
	if p.onSuggest {
		panic("boom: suggest")
	}
	return space.Config{}, nil
}
func (p panicOptimizer) Observe(space.Config, float64) error {
	if p.onObserve {
		panic("boom: observe")
	}
	return nil
}
func (p panicOptimizer) Name() string { return "panic" }

// TestRecoveredSessionHoldsTypedConfigs: the store's decoder hands back
// every number as float64; recovery must leave the session holding what a
// live one holds — configs typed by the space (int64, bool, string) — in
// its records and its incumbent alike.
func TestRecoveredSessionHoldsTypedConfigs(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s1, err := New(Options{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	h1 := httptest.NewServer(s1)
	c1 := NewClientHTTP(h1.URL, h1.Client())
	mustCreate(t, c1, "typed", testSpec("random", 5))
	observeSuggested(t, c1, "typed", 6)
	want, err := s1.session("typed").trials(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantBest, err := s1.session("typed").best(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := want[0].Config["cache_mb"].(int64); !ok {
		t.Fatalf("live record holds cache_mb as %T, want int64", want[0].Config["cache_mb"])
	}
	h1.Close()
	if err := s1.crashClose(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Options{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.session("typed").trials(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered records differ from the live ones (types included):\n got %#v\nwant %#v", got[0].Config, want[0].Config)
	}
	gotBest, err := s2.session("typed").best(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotBest, wantBest) {
		t.Fatalf("recovered incumbent %#v, live %#v", gotBest, wantBest)
	}
}

// swapOptimizer plants a strategy in a live study: a fresh study core
// around opt, journaling into the same store.
func swapOptimizer(s *Server, study string, opt optimizer.Optimizer) {
	s.session(study).core = trial.NewStudy(opt, storeSink{trial.NewStudyJournal(s.stores[0], study)})
}

func TestPanicIsolation(t *testing.T) {
	s, c := newTestServer(t, Options{})
	ctx := context.Background()
	mustCreate(t, c, "bomb", testSpec("random", 7))
	mustCreate(t, c, "healthy", testSpec("random", 8))
	swapOptimizer(s, "bomb", panicOptimizer{onSuggest: true})

	_, err := c.Suggest(ctx, "bomb", 1)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError {
		t.Fatalf("panicking suggest: %v, want 500", err)
	}
	// The study degraded to read-only; the process and siblings survive.
	if _, err := c.Suggest(ctx, "bomb", 1); !errors.As(err, &apiErr) || apiErr.Code != "read_only" {
		t.Fatalf("degraded study: %v, want read_only", err)
	}
	if _, err := c.Suggest(ctx, "healthy", 1); err != nil {
		t.Fatalf("sibling study: %v", err)
	}
	if err := c.Healthy(ctx); err != nil {
		t.Fatalf("healthz after panic: %v", err)
	}
	infos, err := c.Studies(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		if info.Study == "bomb" && !info.ReadOnly {
			t.Fatalf("bomb not listed read-only: %+v", info)
		}
	}
}

func TestObservePanicStaysAcked(t *testing.T) {
	s, c := newTestServer(t, Options{})
	ctx := context.Background()
	mustCreate(t, c, "obomb", testSpec("random", 9))
	sugg, err := c.Suggest(ctx, "obomb", 2)
	if err != nil {
		t.Fatal(err)
	}
	swapOptimizer(s, "obomb", panicOptimizer{onObserve: true})

	obs := []Observation{{Trial: sugg[0].Trial, Config: sugg[0].Config, Value: 1}}
	_, err = c.Observe(ctx, "obomb", obs...)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError {
		t.Fatalf("panicking observe: %v, want 500", err)
	}
	// The observation was durable before the optimizer saw it: the retry
	// dedups and the history holds it exactly once.
	res, err := c.Observe(ctx, "obomb", obs...)
	if err == nil {
		if res.Acked != 0 || res.Duplicates != 1 {
			t.Fatalf("retry after panic: %+v, want dedup", res)
		}
	} else if !errors.As(err, &apiErr) || apiErr.Code != "read_only" {
		t.Fatalf("retry after panic: %v", err)
	}
	trs, err := c.Trials(ctx, "obomb")
	if err != nil || len(trs) != 1 {
		t.Fatalf("trials after panic: %d err=%v, want exactly 1", len(trs), err)
	}
}

func TestRequestDeadline(t *testing.T) {
	s, c := newTestServer(t, Options{RequestTimeout: 50 * time.Millisecond})
	ctx := context.Background()
	mustCreate(t, c, "slow", testSpec("random", 3))
	// Hold the session lock so the suggest can't make progress.
	ss := s.session("slow")
	ss.lk <- struct{}{}
	defer func() { <-ss.lk }()

	_, err := c.Suggest(ctx, "slow", 1)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusGatewayTimeout {
		t.Fatalf("deadline: %v, want 504", err)
	}
	if s.m.deadlines.Load() == 0 {
		t.Fatal("deadline counter not incremented")
	}
}

func TestStoreFailureDegradesToReadOnly(t *testing.T) {
	s, c := newTestServer(t, Options{})
	ctx := context.Background()
	mustCreate(t, c, "deg", testSpec("random", 5))
	sugg := observeSuggested(t, c, "deg", 3)

	s.failStore(errors.New("injected disk failure"))

	var apiErr *APIError
	_, err := c.Observe(ctx, "deg", Observation{Trial: 999, Config: sugg[0].Config, Value: 1})
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("observe on poisoned: %v, want 503", err)
	}
	if _, err := c.CreateStudy(ctx, "deg2", testSpec("random", 6)); !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("create on poisoned: %v, want 503", err)
	}
	// Reads and suggests still serve.
	if _, err := c.Suggest(ctx, "deg", 1); err != nil {
		t.Fatalf("suggest on poisoned: %v", err)
	}
	if _, err := c.Best(ctx, "deg"); err != nil {
		t.Fatalf("best on poisoned: %v", err)
	}
	if err := c.Ready(ctx); err == nil {
		t.Fatal("readyz on poisoned: want failure")
	}
	if err := c.Healthy(ctx); err != nil {
		t.Fatalf("healthz on poisoned: %v", err)
	}
}

func TestParetoFront(t *testing.T) {
	_, c := newTestServer(t, Options{})
	ctx := context.Background()
	mustCreate(t, c, "pareto", testSpec("random", 11))
	sugg, err := c.Suggest(ctx, "pareto", 4)
	if err != nil {
		t.Fatal(err)
	}
	// (value, cost): trials 0 and 1 trade off; 2 and 3 are dominated.
	vals := []struct{ v, cost float64 }{{1, 10}, {2, 5}, {3, 10}, {2, 6}}
	obs := make([]Observation, 4)
	for i, tr := range sugg {
		obs[i] = Observation{Trial: tr.Trial, Config: tr.Config, Value: vals[i].v, CostSeconds: vals[i].cost}
	}
	if _, err := c.Observe(ctx, "pareto", obs...); err != nil {
		t.Fatal(err)
	}
	front, err := c.Pareto(ctx, "pareto")
	if err != nil {
		t.Fatal(err)
	}
	if len(front.Front) != 2 || front.Front[0].Trial != sugg[0].Trial || front.Front[1].Trial != sugg[1].Trial {
		t.Fatalf("front: %+v, want trials %d and %d", front.Front, sugg[0].Trial, sugg[1].Trial)
	}
	// A metric objective works too.
	if _, err := c.Pareto(ctx, "pareto", "value", "p99_ms"); err != nil {
		t.Fatalf("metric objectives: %v", err)
	}
}

// TestOrphanStudyReadOnly covers logs written by other tools: no meta
// record means the history is queryable but not tunable.
func TestOrphanStudyReadOnly(t *testing.T) {
	dir := t.TempDir()
	st, err := studystore.Open(dir, studystore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"id":0,"config":{"x":1},"value":3.5}`)
	if err := st.Append(studystore.Record{Study: "legacy", ID: 0, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, c := newTestServer(t, Options{StoreDir: dir})
	ctx := context.Background()
	var apiErr *APIError
	if _, err := c.Suggest(ctx, "legacy", 1); !errors.As(err, &apiErr) || apiErr.Code != "read_only" {
		t.Fatalf("orphan suggest: %v, want read_only", err)
	}
	best, err := c.Best(ctx, "legacy")
	if err != nil || !best.Found || best.Value != 3.5 {
		t.Fatalf("orphan best: %+v err=%v", best, err)
	}
}

func TestGridExhaustion(t *testing.T) {
	_, c := newTestServer(t, Options{})
	ctx := context.Background()
	spec := StudySpec{
		Optimizer: "grid",
		Space:     []ParamSpec{{Name: "mode", Kind: "categorical", Values: []string{"a", "b"}}},
	}
	mustCreate(t, c, "grid", spec)
	sugg, err := c.Suggest(ctx, "grid", 10)
	if err != nil || len(sugg) != 2 {
		t.Fatalf("grid suggest: %d err=%v, want the whole 2-point grid", len(sugg), err)
	}
	var apiErr *APIError
	if _, err := c.Suggest(ctx, "grid", 1); !errors.As(err, &apiErr) || apiErr.Code != "exhausted" {
		t.Fatalf("exhausted grid: %v, want code exhausted", err)
	}
}
