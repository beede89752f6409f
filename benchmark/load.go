package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"autotune/internal/server"
	"autotune/internal/stats"
)

// load.go is the load generator: closed-loop clients (a tuning worker
// waits for its reply before it evaluates, so a closed loop is the
// honest model), the client-seen latency samples, and the record of
// every acknowledged observation that the exactly-once checks compare
// the daemon's durable history against.

// sample is one completed request: when it ended (since the phase
// started) and how long the client waited for it.
type sample struct {
	end time.Duration
	ms  float64
}

// phase collects what one part of a run measured. Clients append under
// the mutex; with a handful of closed-loop clients it is uncontended.
type phase struct {
	mu        sync.Mutex
	start     time.Time
	suggests  []sample
	observes  []sample
	attempted int64
	failed    int64
	errs      []string // first few failures, for the report
}

func newPhase() *phase { return &phase{start: time.Now()} }

// record counts one request; a successful one adds its latency to
// series (nil for requests that only need counting, such as creates).
func (ph *phase) record(series *[]sample, began time.Time, err error) {
	now := time.Now()
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.attempted++
	if err != nil {
		ph.failed++
		if len(ph.errs) < 5 {
			ph.errs = append(ph.errs, err.Error())
		}
		return
	}
	if series == nil {
		return
	}
	*series = append(*series, sample{end: now.Sub(ph.start), ms: float64(now.Sub(began)) / float64(time.Millisecond)})
}

// warmupShare of a phase's operations, the earliest to complete, are
// warm-up: connection set-up, lazy allocation, the first fsyncs. They
// are excluded from every figure.
const warmupShare = 0.05

// phaseStats is a phase reduced to its figures.
type phaseStats struct {
	requests   int     // completed after warm-up
	seconds    float64 // from the end of warm-up to the last completion
	suggestMS  []float64
	observeMS  []float64
	attempted  int64
	throughput float64
}

func (ph *phase) reduce() phaseStats {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	all := make([]time.Duration, 0, len(ph.suggests)+len(ph.observes))
	for _, s := range ph.suggests {
		all = append(all, s.end)
	}
	for _, s := range ph.observes {
		all = append(all, s.end)
	}
	st := phaseStats{attempted: ph.attempted}
	if len(all) == 0 {
		return st
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	cut := all[int(float64(len(all))*warmupShare)]
	last := all[len(all)-1]
	keep := func(ss []sample) []float64 {
		out := make([]float64, 0, len(ss))
		for _, s := range ss {
			if s.end >= cut {
				out = append(out, s.ms)
			}
		}
		return out
	}
	st.suggestMS, st.observeMS = keep(ph.suggests), keep(ph.observes)
	st.requests = len(st.suggestMS) + len(st.observeMS)
	st.seconds = (last - cut).Seconds()
	if st.seconds > 0 {
		st.throughput = float64(st.requests) / st.seconds
	}
	return st
}

// tailPercentile is the highest of p99, p95 and p90 that has at least
// ten samples beyond it; with fewer than a hundred samples there is no
// supported tail and ok is false.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range []float64{99, 95, 90} {
		if float64(n)*(100-p)/100 >= 10 {
			return p, true
		}
	}
	return 0, false
}

// steadyTail is the p-th percentile made robust to one bad moment: the
// samples, in completion order, are cut into up to eight slices of at
// least tailSliceMin, and the median of the slices' percentiles is
// reported. A scheduler hiccup that lands in one slice moves that
// slice's tail, not the figure.
func steadyTail(ms []float64, p float64) float64 {
	slices := len(ms) / tailSliceMin
	if slices > 8 {
		slices = 8
	}
	if slices < 2 {
		return stats.Percentile(ms, p)
	}
	per := make([]float64, slices)
	for i := range per {
		per[i] = stats.Percentile(ms[i*len(ms)/slices:(i+1)*len(ms)/slices], p)
	}
	return stats.Median(per)
}

// tailSliceMin is the fewest samples a slice of steadyTail may hold.
const tailSliceMin = 200

// ackKey names one observation.
type ackKey struct {
	study string
	trial int64
}

// ledger is the client's record of what it was told is durable, and of
// what it sent without hearing back (a request in flight when kill -9
// landed may or may not have reached the log).
type ledger struct {
	mu     sync.Mutex
	acked  map[ackKey]float64
	unsure map[ackKey]float64
}

func newLedger() *ledger {
	return &ledger{acked: map[ackKey]float64{}, unsure: map[ackKey]float64{}}
}

func (l *ledger) ack(study string, obs []server.Observation) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, o := range obs {
		l.acked[ackKey{study, o.Trial}] = o.Value
	}
}

func (l *ledger) doubt(study string, obs []server.Observation) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, o := range obs {
		l.unsure[ackKey{study, o.Trial}] = o.Value
	}
}

func (l *ledger) ackedCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.acked)
}

// asker is what the timed run's workers and the traced run's single
// client share: one suggest, one observe, each checked and recorded.
type asker interface {
	suggest(s study, n int) ([]server.SuggestedTrial, error)
	observe(s study, obs ...server.Observation) error
}

// checkedSuggest asks for exactly n configurations.
func checkedSuggest(ctx context.Context, c *server.Client, s study, n int) ([]server.SuggestedTrial, error) {
	trials, err := c.Suggest(ctx, s.Name, n)
	if err == nil && len(trials) != n {
		err = fmt.Errorf("suggest %s: asked for %d configurations, got %d", s.Name, n, len(trials))
	}
	return trials, err
}

// checkedObserve reports obs in one request. Every observation must come
// back acked: a duplicate means the harness sent the same trial twice,
// which no workload does.
func checkedObserve(ctx context.Context, c *server.Client, s study, obs []server.Observation) error {
	res, err := c.Observe(ctx, s.Name, obs...)
	if err == nil && (res.Acked != len(obs) || res.Duplicates != 0) {
		err = fmt.Errorf("observe %s: sent %d, acked %d, duplicates %d", s.Name, len(obs), res.Acked, res.Duplicates)
	}
	return err
}

// worker is one closed-loop client. ph is the part of the run its
// requests are currently recorded in.
type worker struct {
	ctx context.Context
	c   *server.Client
	led *ledger
	ph  *phase
}

func (w *worker) suggest(s study, n int) ([]server.SuggestedTrial, error) {
	began := time.Now()
	trials, err := checkedSuggest(w.ctx, w.c, s, n)
	w.ph.record(&w.ph.suggests, began, err)
	return trials, err
}

func (w *worker) observe(s study, obs ...server.Observation) error {
	began := time.Now()
	err := checkedObserve(w.ctx, w.c, s, obs)
	w.ph.record(&w.ph.observes, began, err)
	if err == nil {
		w.led.ack(s.Name, obs)
	}
	return err
}

// suggestThenObserveEach is one round on one study: a suggest for n
// configurations, then n single-trial observes, each an ack-after-fsync.
func suggestThenObserveEach(a asker, s study, n int) error {
	trials, err := a.suggest(s, n)
	if err != nil {
		return err
	}
	obs, err := evaluate(s, trials)
	if err != nil {
		return err
	}
	for _, o := range obs {
		if err := a.observe(s, o); err != nil {
			return err
		}
	}
	return nil
}

// runStudy drives s for budget trials: suggest 1, evaluate here, observe
// 1. It returns the best value seen and the time spent in the objective.
func runStudy(a asker, s study, budget int) (best float64, evalTime time.Duration, err error) {
	for t := 0; t < budget; t++ {
		trials, err := a.suggest(s, 1)
		if err != nil {
			return best, evalTime, err
		}
		t0 := time.Now()
		obs, err := evaluate(s, trials)
		evalTime += time.Since(t0)
		if err != nil {
			return best, evalTime, err
		}
		if t == 0 || obs[0].Value < best {
			best = obs[0].Value
		}
		if err := a.observe(s, obs...); err != nil {
			return best, evalTime, err
		}
	}
	return best, evalTime, nil
}

// evaluate turns suggested trials into the observations the client
// reports for them.
func evaluate(s study, trials []server.SuggestedTrial) ([]server.Observation, error) {
	obs := make([]server.Observation, len(trials))
	for i, t := range trials {
		cfg, err := typedConfig(s.sp, t.Config)
		if err != nil {
			return nil, fmt.Errorf("study %s trial %d: %w", s.Name, t.Trial, err)
		}
		obs[i] = server.Observation{Trial: t.Trial, Config: t.Config, Value: s.eval(cfg, t.Trial)}
	}
	return obs, nil
}

// parallel runs fn once per worker and waits for all of them; the first
// error wins. A panic in fn is reported as that worker's error.
func parallel(workers []*worker, fn func(i int, w *worker) error) error {
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("client %d panicked: %v", i, r)
				}
			}()
			errs[i] = fn(i, w)
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
