package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"testing"

	"autotune/internal/space"
	"autotune/internal/studystore"
)

// serviceSpec is the four-parameter space of the benchmark's random-search
// studies (benchmark/workload.go serviceSpace), so the counts pinned here
// are the ones server.allocs_per_suggest reports.
func serviceSpec() StudySpec {
	return StudySpec{Optimizer: "random", Seed: 1, Space: []ParamSpec{
		{Name: "cache_mb", Kind: "int", Min: 64, Max: 8192, Log: true},
		{Name: "flush_interval", Kind: "float", Min: 0.01, Max: 30, Log: true},
		{Name: "policy", Kind: "categorical", Values: []string{"lru", "fifo", "arc", "clock"}},
		{Name: "direct_io", Kind: "bool"},
	}}
}

// sampleTrials draws n trials from a space with a conditional child and
// drops the child where its parent rules it out, so configs differ in
// their key sets the way a client of a conditional space sees them.
func sampleTrials(t *testing.T, n int) []SuggestedTrial {
	t.Helper()
	spec := testSpec("random", 3)
	spec.Space = append(spec.Space, ParamSpec{
		Name: "arc_ghosts", Kind: "float", Min: 1e-9, Max: 1e24, Log: true,
		Parent: "policy", ParentValues: []string{"arc"},
	})
	sp, err := buildSpace(spec.Space)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	out := make([]SuggestedTrial, n)
	for i := range out {
		cfg := sp.Sample(rng)
		if !sp.Active(cfg, "arc_ghosts") {
			delete(cfg, "arc_ghosts")
		}
		out[i] = SuggestedTrial{Trial: int64(i) * 1001, Config: cfg}
	}
	return out
}

// TestSuggestResponseMatchesEncodingJSON is the byte-identity contract of
// appendSuggestResponse: whatever json.Encoder writes for the struct, the
// hand-written encoder writes too.
func TestSuggestResponseMatchesEncodingJSON(t *testing.T) {
	cases := map[string][]SuggestedTrial{
		"nil trials":  nil,
		"count 0":     {},
		"count 1":     sampleTrials(t, 1),
		"count 64":    sampleTrials(t, 64),
		"nil config":  {{Trial: 9}},
		"empty":       {{Trial: math.MaxInt64, Config: map[string]any{}}},
		"html + utf8": {{Trial: -1, Config: map[string]any{"<k>": "a&b", "é": "\u2028", "q": `"\`}}},
	}
	for name, trials := range cases {
		for _, exhausted := range []bool{false, true} {
			r := suggestResponse{Study: "study-" + name, Trials: trials, Exhausted: exhausted}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(r); err != nil {
				t.Fatal(err)
			}
			got, err := appendSuggestResponse(nil, r)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("%s exhausted=%v:\n got %s\nwant %s", name, exhausted, got, want.Bytes())
			}
		}
	}
	if sawAbsent, sawPresent := keyCounts(cases["count 64"], "arc_ghosts"); sawAbsent == 0 || sawPresent == 0 {
		t.Fatalf("conditional child absent in %d and present in %d of 64 configs; the case needs both", sawAbsent, sawPresent)
	}
}

func keyCounts(trials []SuggestedTrial, key string) (absent, present int) {
	for _, tr := range trials {
		if _, ok := tr.Config[key]; ok {
			present++
		} else {
			absent++
		}
	}
	return absent, present
}

// nanOptimizer suggests a config no JSON encoder can write.
type nanOptimizer struct{ panicOptimizer }

func (nanOptimizer) Suggest() (space.Config, error) {
	return space.Config{"timeout": math.NaN()}, nil
}

// TestEncodeFailureIs500: the body is encoded before the status line is
// sent, so an unencodable response is a 500 with the error envelope, not
// a 200 whose body stops short.
func TestEncodeFailureIs500(t *testing.T) {
	s, c := newTestServer(t, Options{})
	ctx := context.Background()
	mustCreate(t, c, "nan", testSpec("random", 7))
	swapOptimizer(s, "nan", nanOptimizer{})
	_, err := c.Suggest(ctx, "nan", 1)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError || apiErr.Code != "encode_failed" {
		t.Fatalf("NaN suggest: %v, want 500 encode_failed", err)
	}

	// The encoding/json responses go through the same buffer-then-write.
	rec := httptest.NewRecorder()
	s.writeJSON(rec, http.StatusCreated, map[string]float64{"v": math.Inf(1)})
	var env errorResponse
	if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &env) != nil || env.Code != "encode_failed" {
		t.Fatalf("unencodable writeJSON: %d %q, want 500 encode_failed", rec.Code, rec.Body)
	}
	if _, err := c.Suggest(ctx, "nan", 1); !errors.As(err, &apiErr) || apiErr.Code != "encode_failed" {
		t.Fatalf("second NaN suggest: %v; an encode failure must not degrade the study", err)
	}
}

func TestBodyTooLargeIs413(t *testing.T) {
	_, c := newTestServer(t, Options{})
	mustCreate(t, c, "big", testSpec("random", 7))
	body := io.MultiReader(strings.NewReader(`{"count":1,"pad":"`), bytes.NewReader(make([]byte, maxBodyBytes)), strings.NewReader(`"}`))
	resp, err := c.hc.Post(c.base+"/v1/studies/big/suggest", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || env.Code != "body_too_large" {
		t.Fatalf("oversized body: %d %+v, want 413 body_too_large", resp.StatusCode, env)
	}
}

// TestParetoObjectivesEscaped: metric names are data, not query syntax.
func TestParetoObjectivesEscaped(t *testing.T) {
	_, c := newTestServer(t, Options{})
	ctx := context.Background()
	mustCreate(t, c, "esc", testSpec("random", 11))
	sugg, err := c.Suggest(ctx, "esc", 3)
	if err != nil {
		t.Fatal(err)
	}
	obs := make([]Observation, len(sugg))
	for i, tr := range sugg {
		obs[i] = Observation{Trial: tr.Trial, Config: tr.Config, Value: 1,
			Metrics: map[string]float64{"p99 ms": float64(i), "a&b": float64(-i), "a": 0}}
	}
	if _, err := c.Observe(ctx, "esc", obs...); err != nil {
		t.Fatal(err)
	}
	front, err := c.Pareto(ctx, "esc", "p99 ms", "a&b")
	if err != nil {
		t.Fatal(err)
	}
	if len(front.Objectives) != 2 || front.Objectives[0] != "p99 ms" || front.Objectives[1] != "a&b" || len(front.Front) != 3 {
		t.Fatalf("front over %q with %d points, want [p99 ms, a&b] with 3", front.Objectives, len(front.Front))
	}
}

// TestHTMLCharactersRoundTrip: a study name and a categorical level with
// '<' in them (a store written by another tool; the create endpoint would
// refuse the name) take the encoder's json.Marshal detour and reach a
// Client as they were.
func TestHTMLCharactersRoundTrip(t *testing.T) {
	const study, level = "a<b", "x<y&z"
	dir := t.TempDir()
	st, err := studystore.Open(dir, studystore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	meta := studyMeta{Meta: 1, Study: study, Optimizer: "random", Seed: 4,
		Space: []ParamSpec{{Name: "mode", Kind: "categorical", Values: []string{level}}}}
	if err := st.Append(studystore.Record{Study: study, ID: metaID, Payload: []byte(mustJSON(t, meta))}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, c := newTestServer(t, Options{StoreDir: dir})
	var resp suggestResponse
	if err := c.do(context.Background(), http.MethodPost, "/v1/studies/"+study+"/suggest", suggestRequest{Count: 2}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Study != study || len(resp.Trials) != 2 || resp.Trials[1].Config["mode"] != level {
		t.Fatalf("got %+v, want study %q and mode %q", resp, study, level)
	}
}

// nullWriter is the cheapest ResponseWriter there is, so the count below
// is the handler's and not a recorder's.
type nullWriter struct{ h http.Header }

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullWriter) WriteHeader(int)             {}

// suggestAllocCeiling bounds one count=64 suggest through ServeHTTP on the
// service space. Measured 321: about 25 for routing, the deadline context
// and the request decode, and 4.7 per config for its map and boxed values,
// which is the sampler's work; the encoder adds none once the pooled
// buffer has grown. encoding/json's reflective map walk made it 896.
const suggestAllocCeiling = 400

// fleetServer returns a server with its store in a temp dir, holding one
// random study "fleet" on the service space, and a writer to serve into.
func fleetServer(tb testing.TB) (*Server, *nullWriter) {
	s, err := New(Options{StoreDir: tb.TempDir()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = s.Close() })
	w := &nullWriter{h: http.Header{}}
	body := strings.NewReader(mustJSON(tb, createRequest{Study: "fleet", StudySpec: serviceSpec()}))
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/studies", body))
	if s.session("fleet") == nil {
		tb.Fatal("study not created")
	}
	return s, w
}

// suggestDriver returns a func that pushes one count=64 suggest on the
// service space through Server.ServeHTTP, net/http left out.
func suggestDriver(tb testing.TB) func() {
	s, w := fleetServer(tb)
	body := strings.NewReader("")
	req := httptest.NewRequest(http.MethodPost, "/v1/studies/fleet/suggest", nil)
	return func() {
		body.Reset(`{"count":64}`)
		req.Body = io.NopCloser(body)
		s.ServeHTTP(w, req)
	}
}

// skipUnderRace skips an alloc count under the race detector, which makes
// sync.Pool drop buffers at random.
func skipUnderRace(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "-race" && kv.Value == "true" {
				t.Skip("the race detector makes sync.Pool drop buffers at random")
			}
		}
	}
}

// observeAllocCeiling bounds one single-trial observe through ServeHTTP on
// the service space's random study, the store's framing and fsync
// included. Measured 67. While every strategy kept its own clone of each
// observed config (and another of the incumbent) it was 69.
const observeAllocCeiling = 67

// TestObserveHandlerAllocs is TestSuggestHandlerAllocs for the write path:
// each call observes one fresh trial, as the benchmark's observe-durable
// clients do, and the count is what server.allocs_per_observe traces.
func TestObserveHandlerAllocs(t *testing.T) {
	skipUnderRace(t)
	s, w := fleetServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/studies/fleet/suggest", strings.NewReader(`{"count":64}`)))
	var sugg suggestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sugg); err != nil || len(sugg.Trials) != 64 {
		t.Fatalf("suggest: %v, %d trials", err, len(sugg.Trials))
	}
	rng := rand.New(rand.NewSource(1))
	bodies := make([]string, len(sugg.Trials))
	for i, tr := range sugg.Trials {
		bodies[i] = mustJSON(t, Observation{Trial: tr.Trial, Config: tr.Config, Value: rng.Float64()})
	}
	body := strings.NewReader("")
	req := httptest.NewRequest(http.MethodPost, "/v1/studies/fleet/observe", nil)
	next := 0
	observe := func() {
		body.Reset(bodies[next])
		next++
		req.Body = io.NopCloser(body)
		s.ServeHTTP(w, req)
	}
	observe() // grow the pooled buffers
	allocs := testing.AllocsPerRun(50, observe)
	t.Logf("single-trial observe: %v allocs per request", allocs)
	if n := len(s.session("fleet").core.Records()); n != next {
		t.Fatalf("%d trials recorded after %d observes; every observe must ack", n, next)
	}
	if allocs > observeAllocCeiling {
		t.Fatalf("single-trial observe allocates %v per request, ceiling %d", allocs, observeAllocCeiling)
	}
}

// TestSuggestHandlerAllocs is the gate that travels for the suggest path:
// a deterministic count, where the benchmark's timings need ten pairs.
func TestSuggestHandlerAllocs(t *testing.T) {
	skipUnderRace(t)
	suggest := suggestDriver(t)
	suggest() // grow the pooled buffer
	allocs := testing.AllocsPerRun(50, suggest)
	t.Logf("count=64 suggest: %v allocs per request", allocs)
	if allocs > suggestAllocCeiling {
		t.Fatalf("count=64 suggest allocates %v per request, ceiling %d", allocs, suggestAllocCeiling)
	}
}

// BenchmarkSuggestHandler is the profile target behind EXPERIMENTS.md B14:
// go test ./internal/server -run '^$' -bench SuggestHandler -cpuprofile f.
func BenchmarkSuggestHandler(b *testing.B) {
	suggest := suggestDriver(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		suggest()
	}
}
