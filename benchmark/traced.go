package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"autotune/internal/core"
	"autotune/internal/optimizer"
	"autotune/internal/server"
	"autotune/internal/space"
	"autotune/internal/stats"
	"autotune/internal/studystore"
	"autotune/internal/trial"
)

// traced.go is the traced run: a shorter single-client pass against
// server.New in this process, behind net/http on loopback, with a
// server.handle span around Server.ServeHTTP and shadow instances driven
// with the same operations — a shadow studystore.Store on the timing FS
// and a shadow optimizer from core.NewOptimizer with the study's seed.
// Single client and no timers, so the counts repeat exactly. End-to-end
// metrics are never taken here.

// traceSizes are the traced pass's operation counts: enough samples for
// a median per layer, few enough to stay a fraction of the timed run.
type traceSizes struct {
	fleetStudies, fleetRequests   int
	durableStudies, durableRounds int
	burstRounds                   int
	allocRounds                   int
}

func traceSizesFor(quick bool) traceSizes {
	if quick {
		return traceSizes{fleetStudies: 8, fleetRequests: 32, durableStudies: 4, durableRounds: 1, burstRounds: 2, allocRounds: 1}
	}
	return traceSizes{fleetStudies: 128, fleetRequests: 1024, durableStudies: 32, durableRounds: 2, burstRounds: 8, allocRounds: 4}
}

// inproc is the daemon's server in this process.
type inproc struct {
	srv  *server.Server
	hs   *http.Server
	base string
	h    *traceHandler
	done sync.WaitGroup // Serve returned

	recovered time.Duration // how long server.New took on the store
}

func startInproc(store string, tr *tracer) (*inproc, error) {
	t0 := time.Now()
	srv, err := server.New(server.Options{StoreDir: store})
	recovered := time.Since(t0)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		//autolint:ignore droppederr best-effort cleanup; the listen error is what the caller needs
		srv.Close()
		return nil, err
	}
	ip := &inproc{srv: srv, base: "http://" + ln.Addr().String(), recovered: recovered}
	ip.h = &traceHandler{next: srv, tr: tr, respBytes: map[string][]float64{}, mallocs: map[string][]float64{}}
	ip.hs = &http.Server{Handler: ip.h}
	if tr == nil {
		ip.hs.Handler = srv // the reference pass: nothing between net/http and the server
	}
	ip.done.Add(1)
	// Serve returns (ErrServerClosed) when shutdown closes the listener,
	// and shutdown waits for it.
	go func() {
		defer ip.done.Done()
		//autolint:ignore droppederr Serve always returns ErrServerClosed after shutdown
		ip.hs.Serve(ln)
	}()
	return ip, nil
}

func (ip *inproc) shutdown() error {
	err := ip.hs.Close()
	ip.done.Wait()
	if cerr := ip.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// tclient is the traced run's single client with its shadows.
type tclient struct {
	ctx     context.Context
	c       *server.Client
	stamp   *stampTransport
	tr      *tracer // nil: no spans, no shadows (the reference pass, the allocation rounds)
	stamped bool    // requests carry their ID to the wrapping handler
	next    int64

	clientMS map[string][]float64 // op -> client-seen ms

	shadows map[string]optimizer.Optimizer
	sstore  *studystore.Store
	cur     struct { // the studystore.append span the timing FS reports under
		parent int
		req    int64
	}
	mismatch []string
	boCycles []cycle

	ph *phase // request accounting; latencies are kept in clientMS
}

// cycle is one suggest -> observe turn of a shadow bo optimizer.
type cycle struct{ suggest, observe time.Duration }

func newTClient(ctx context.Context, base string, tr *tracer, shadowDir string) (*tclient, error) {
	stamp := &stampTransport{next: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	tc := &tclient{
		ctx: ctx, stamp: stamp, tr: tr, stamped: tr != nil,
		c:        server.NewClientHTTP(base, &http.Client{Transport: stamp, Timeout: requestTimeout}),
		clientMS: map[string][]float64{}, shadows: map[string]optimizer.Optimizer{},
		ph: newPhase(),
	}
	if tr != nil {
		fs := &timingFS{
			FS:      studystore.OSFS(),
			onWrite: func(d time.Duration, _ int) { tr.add("fs.write", "observe", tc.cur.parent, tc.cur.req, d) },
			onSync:  func(d time.Duration) { tr.add("fs.fsync", "observe", tc.cur.parent, tc.cur.req, d) },
		}
		st, err := studystore.Open(shadowDir, studystore.Options{FS: fs})
		if err != nil {
			return nil, err
		}
		tc.sstore = st
	}
	return tc, nil
}

func (tc *tclient) closeShadowStore() error {
	if tc.sstore != nil {
		return tc.sstore.Close()
	}
	return nil
}

// call runs one stamped request with a client.request span around it.
func (tc *tclient) call(op string, do func() error) (int64, error) {
	tc.next++
	req := tc.next
	id := 0
	if tc.stamped {
		tc.stamp.cur = req
	}
	if tc.tr != nil {
		id = tc.tr.begin("client.request", op, 0, req)
	}
	t0 := time.Now()
	err := do()
	d := time.Since(t0)
	if tc.tr != nil {
		tc.tr.end(id)
	}
	tc.stamp.cur = 0
	tc.ph.record(nil, t0, err)
	if err == nil {
		tc.clientMS[op] = append(tc.clientMS[op], float64(d)/float64(time.Millisecond))
	}
	return req, err
}

// shadow returns the study's shadow optimizer: a fresh one built the way
// the daemon builds it, from the study's own optimizer name and seed.
func (tc *tclient) shadow(s study) (optimizer.Optimizer, error) {
	if opt, ok := tc.shadows[s.Name]; ok {
		return opt, nil
	}
	opt, err := core.NewOptimizer(s.Spec.Optimizer, s.sp, rand.New(rand.NewSource(s.Spec.Seed)))
	if err != nil {
		return nil, err
	}
	tc.shadows[s.Name] = opt
	return opt, nil
}

// replayShadow feeds the study's durable history, as GET trials returns
// it, to a fresh shadow optimizer: the oracle a recovered study's
// suggest stream is compared against.
func (tc *tclient) replayShadow(s study) error {
	recs, err := tc.c.Trials(tc.ctx, s.Name)
	if err != nil {
		return err
	}
	opt, err := tc.shadow(s)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		cfg, err := typedConfig(s.sp, rec.Config)
		if err != nil {
			return err
		}
		if err := opt.Observe(cfg, rec.Value); err != nil {
			return err
		}
	}
	return nil
}

func suggestN(opt optimizer.Optimizer, n int) ([]space.Config, error) {
	if bs, ok := opt.(optimizer.BatchSuggester); ok && n > 1 {
		return bs.SuggestN(n)
	}
	cfgs := make([]space.Config, 0, n)
	for i := 0; i < n; i++ {
		cfg, err := opt.Suggest()
		if err != nil {
			return nil, err
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs, nil
}

func (tc *tclient) suggest(s study, n int) ([]server.SuggestedTrial, error) {
	var trials []server.SuggestedTrial
	req, err := tc.call("suggest", func() (err error) {
		trials, err = checkedSuggest(tc.ctx, tc.c, s, n)
		return err
	})
	if err != nil || tc.tr == nil {
		return trials, err
	}
	opt, err := tc.shadow(s)
	if err != nil {
		return nil, err
	}
	id := tc.tr.begin("optimizer.suggest", "suggest", tc.tr.handlerOf(req), req)
	t0 := time.Now()
	cfgs, err := suggestN(opt, n)
	took := time.Since(t0)
	tc.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("shadow optimizer of %s: %w", s.Name, err)
	}
	if s.Spec.Optimizer == "bo" {
		tc.boCycles = append(tc.boCycles, cycle{suggest: took})
	}
	for i, t := range trials {
		got, err := typedConfig(s.sp, t.Config)
		if err != nil {
			return nil, err
		}
		if got.Key() != cfgs[i].Key() && len(tc.mismatch) < 5 {
			tc.mismatch = append(tc.mismatch, fmt.Sprintf("%s trial %d: server %s, shadow %s", s.Name, t.Trial, got.Key(), cfgs[i].Key()))
		}
	}
	return trials, nil
}

func (tc *tclient) observe(s study, obs ...server.Observation) error {
	req, err := tc.call("observe", func() error { return checkedObserve(tc.ctx, tc.c, s, obs) })
	if err != nil || tc.tr == nil {
		return err
	}
	// The records the daemon frames for this request: the same payloads,
	// so the shadow store writes the same bytes.
	recs := make([]studystore.Record, len(obs))
	cfgs := make([]space.Config, len(obs))
	for i, o := range obs {
		cfg, err := typedConfig(s.sp, o.Config)
		if err != nil {
			return err
		}
		cfgs[i] = cfg
		payload, err := json.Marshal(trial.TrialRecord{ID: int(o.Trial), Config: cfg, Value: o.Value})
		if err != nil {
			return err
		}
		recs[i] = studystore.Record{Study: s.Name, ID: o.Trial, Payload: payload}
	}
	parent := tc.tr.handlerOf(req)
	id := tc.tr.begin("studystore.append", "observe", parent, req)
	tc.cur.parent, tc.cur.req = id, req
	err = tc.sstore.AppendBatch(recs)
	tc.tr.end(id)
	if err != nil {
		return fmt.Errorf("shadow store: %w", err)
	}
	opt, err := tc.shadow(s)
	if err != nil {
		return err
	}
	id = tc.tr.begin("optimizer.observe", "observe", parent, req)
	t0 := time.Now()
	for i, o := range obs {
		if err == nil {
			err = opt.Observe(cfgs[i], o.Value)
		}
	}
	took := time.Since(t0)
	tc.tr.end(id)
	if s.Spec.Optimizer == "bo" && len(tc.boCycles) > 0 {
		tc.boCycles[len(tc.boCycles)-1].observe = took
	}
	return err
}

// mix runs the workload's own traffic, shortened, and then a few burst
// rounds on a canary study so that both handlers have samples on every
// workload. On a daemon booted on an existing store (recovered), every
// study that will be asked first gets its shadow optimizer replayed from
// the durable history.
func (tc *tclient) mix(p *plan, tsz traceSizes, recovered bool) (best float64, err error) {
	sz := p.sz
	canary := p.canaries[0]
	// restart asks what every recovery boot is asked: each bo study's
	// next configuration, then a few random studies'.
	var asked []study
	if p.workload == wlRestart {
		asked = append(asked, p.bo...)
		for k := 0; k < sz.BootSuggests; k++ {
			asked = append(asked, p.random[k%len(p.random)])
		}
	}
	if recovered && tc.tr != nil {
		for _, s := range append(asked[:len(asked):len(asked)], canary) {
			if _, replayed := tc.shadows[s.Name]; !replayed && err == nil {
				err = tc.replayShadow(s)
			}
		}
	}
	switch p.workload {
	case wlFleet:
		for q := 0; q < tsz.fleetRequests && err == nil; q++ {
			_, err = tc.suggest(p.random[q%min(tsz.fleetStudies, len(p.random))], sz.FleetCount)
		}
	case wlDurable:
		for round := 0; round < tsz.durableRounds; round++ {
			for j := 0; j < min(tsz.durableStudies, len(p.random)) && err == nil; j++ {
				err = suggestThenObserveEach(tc, p.random[j], sz.DurableBatch)
			}
		}
	case wlBO:
		// The Hartmann6 study at its full budget: depth is what the bo
		// layer's cost depends on, so this pass is not shortened.
		if err == nil {
			best, _, err = runStudy(tc, p.bo[0], sz.BOBudget)
		}
	case wlRestart:
		for _, s := range asked {
			if err == nil {
				n := sz.DurableBatch
				if s.Spec.Optimizer == "bo" {
					n = 1
				}
				_, err = tc.suggest(s, n)
			}
		}
	}
	for round := 0; round < tsz.burstRounds && err == nil; round++ {
		err = suggestThenObserveEach(tc, canary, sz.DurableBatch)
	}
	return best, err
}

// createStudies creates every study of the plan on a fresh in-process
// server (unstamped: set-up is not traced).
func (tc *tclient) createStudies(p *plan) error {
	for _, s := range p.allStudies() {
		created, err := tc.c.CreateStudy(tc.ctx, s.Name, s.Spec)
		if err == nil && !created {
			err = fmt.Errorf("study %s already existed in a fresh store", s.Name)
		}
		tc.ph.record(nil, time.Now(), err)
		if err != nil {
			return err
		}
	}
	return nil
}

// passResult is one single-client pass.
type passResult struct {
	clientMS map[string][]float64
	table    spanTable
	h        *traceHandler
	before   map[string]float64 // /metrics around the traced mix
	after    map[string]float64
	best     float64
	boCycles []cycle
	boShadow optimizer.Optimizer // bo-study: the Hartmann6 study's shadow
	mismatch []string
	recover  time.Duration // server.New on the store
}

// singlePass boots the server in-process on store (creating the studies
// unless the store was preloaded by a daemon that was then killed), runs
// the mix with one client, then the allocation rounds, and shuts down.
func singlePass(ctx context.Context, p *plan, tsz traceSizes, store, shadowDir string, tr *tracer, recovered bool, res *result) (passResult, error) {
	var out passResult
	ip, err := startInproc(store, tr)
	if err != nil {
		return out, err
	}
	out.recover, out.h = ip.recovered, ip.h
	tc, err := newTClient(ctx, ip.base, tr, shadowDir)
	if err != nil {
		//autolint:ignore droppederr the open error is what the caller needs
		ip.shutdown()
		return out, err
	}
	run := func() error {
		if !recovered {
			if err := tc.createStudies(p); err != nil {
				return err
			}
		}
		var err error
		if out.before, err = scrapeMetrics(ip.base); err != nil {
			return err
		}
		if out.best, err = tc.mix(p, tsz, recovered); err != nil {
			return err
		}
		if out.after, err = scrapeMetrics(ip.base); err != nil {
			return err
		}
		if tr == nil {
			return nil
		}
		// Allocation rounds: same server, the handler now counts heap
		// objects instead of recording spans. The shadows are done, so
		// the client stops driving them.
		ip.h.allocs.Store(true)
		tc.tr = nil
		count := p.sz.DurableBatch
		if p.workload == wlFleet {
			count = p.sz.FleetCount
		}
		s := p.canaries[len(p.canaries)-1]
		for round := 0; round < tsz.allocRounds; round++ {
			if err := suggestThenObserveEach(tc, s, count); err != nil {
				return err
			}
		}
		return nil
	}
	err = run()
	res.addPhase(tc.ph)
	if cerr := tc.closeShadowStore(); err == nil {
		err = cerr
	}
	if cerr := ip.shutdown(); err == nil {
		err = cerr
	}
	out.clientMS, out.boCycles, out.mismatch = tc.clientMS, tc.boCycles, tc.mismatch
	if len(p.bo) > 0 {
		out.boShadow = tc.shadows[p.bo[0].Name]
	}
	if tr != nil {
		out.table = tr.table()
	}
	return out, err
}

// reconcileTolerance is how far a layer's median may exceed the median
// of the layer that contains it before the row counts as unreconciled:
// the shadows run beside the request rather than inside it, so equal
// work can time a few percent apart.
const reconcileTolerance = 0.10

// reconcileMinSamples is the fewest requests of one kind whose medians
// are compared; a -quick pass has fewer and one slow fsync would decide.
const reconcileMinSamples = 64

// tracedRun is one whole traced run.
func tracedRun(ctx context.Context, p *plan, bin, workdir, traceFile string, res *result) error {
	tsz := traceSizesFor(p.sz.Quick)
	mk := func(name string) (string, error) {
		dir := filepath.Join(workdir, name)
		return dir, os.MkdirAll(dir, 0o755)
	}
	recovered := p.workload == wlRestart
	var killedStore string
	stores := [2]string{}
	for i, name := range []string{"store-untraced", "store-traced"} {
		var err error
		if stores[i], err = mk(name); err != nil {
			return err
		}
	}
	shadowDir, err := mk("store-shadow")
	if err != nil {
		return err
	}
	if recovered {
		// restart's traced passes boot on copies of a store that a real
		// daemon subprocess preloaded and was then killed on, mid-flight.
		r := &runner{ctx: ctx, plan: p, bin: bin, workdir: workdir, res: res}
		inst, _, err := r.setUp(newLedger())
		if err != nil {
			return err
		}
		defer inst.d.kill() // the burst kills it; an early return must too
		if _, err := r.crashBurst(inst); err != nil {
			return err
		}
		killedStore = inst.store
		for _, dst := range stores {
			if err := copyDir(killedStore, dst); err != nil {
				return err
			}
		}
	}

	// The reference pass: same server, same requests, no spans, no
	// shadows. The difference to the traced pass is the tracing overhead.
	plain, err := singlePass(ctx, p, tsz, stores[0], "", nil, recovered, res)
	if err != nil {
		return err
	}
	tr := newTracer()
	traced, err := singlePass(ctx, p, tsz, stores[1], shadowDir, tr, recovered, res)
	if err != nil {
		return err
	}
	if err := traced.table.writeFile(traceFile, p.workload, p.seed); err != nil {
		return err
	}
	res.Info["trace_spans"] = float64(len(traced.table.spans))

	res.check("shadow optimizer's suggest stream equals the server's", len(traced.mismatch) == 0, firstFew(traced.mismatch))
	serverMetrics(res, p, plain, traced)

	// The store as recovery finds it: the killed store for restart, the
	// traced server's (sealed) store otherwise.
	openDir := stores[1]
	if recovered {
		openDir = killedStore
	}
	if err := storeOpenProbe(res, openDir); err != nil {
		return err
	}
	optimizerProbes(res, p)
	studyHistory, err := boProbes(res, p, traced)
	if err != nil {
		return err
	}
	return gpProbes(res, studyHistory, p.sz.Quick)
}

// serverMetrics reduces the traced pass's spans and counters to the
// server and studystore rows and checks that the layers reconcile.
func serverMetrics(res *result, p *plan, plain, traced passResult) {
	tb := traced.table
	for _, op := range []string{"suggest", "observe"} {
		handler := tb.dur("server.handle", op)
		res.setSamples("server."+op+"_handler_us", medianOr0(handler), len(handler))
		res.set("server.self_us_per_"+op, medianOr0(tb.self("server.handle", op)))
		res.set("server.allocs_per_"+op, medianOr0(traced.h.mallocs[op]))

		// shadows <= handler <= client, on medians, within tolerance.
		shadows, client := medianOr0(tb.childSum("server.handle", op)), medianOr0(tb.dur("client.request", op))
		h := medianOr0(handler)
		ok := shadows <= h*(1+reconcileTolerance) && h <= client*(1+reconcileTolerance)
		state := "reconciled"
		switch {
		case len(handler) < reconcileMinSamples:
			ok, state = true, fmt.Sprintf("not judged on %d samples", len(handler))
		case !ok:
			state = "unreconciled"
		}
		res.check("layers reconcile on "+op, ok,
			fmt.Sprintf("%s: shadow layers %.1f us <= server.handle %.1f us <= client %.1f us (tolerance %.0f%%)", state, shadows, h, client, reconcileTolerance*100))
		if h > 0 {
			res.Info["share."+op+".server_self"] = medianOr0(tb.self("server.handle", op)) / h
			res.Info["share."+op+".optimizer"] = medianOr0(tb.dur("optimizer."+op, op)) / h
		}
	}
	if h := medianOr0(tb.dur("server.handle", "observe")); h > 0 {
		res.Info["share.observe.studystore"] = medianOr0(tb.dur("studystore.append", "")) / h
	}
	res.set("server.resp_bytes_per_suggest", medianOr0(traced.h.respBytes["suggest"]))

	// Network and client codec: client span minus handler span, per
	// request, over both operations.
	var wire []float64
	for _, s := range tb.spans {
		if s.Name == "server.handle" && s.Parent > 0 {
			client := tb.spans[s.Parent-1]
			wire = append(wire, float64(client.dur()-s.dur())/float64(time.Microsecond))
		}
	}
	res.setSamples("server.net_us_per_req", medianOr0(wire), len(wire))

	delta := func(name string) float64 { return traced.after[name] - traced.before[name] }
	res.set("server.shed_429", delta("autotuned_shed_total"))
	res.set("server.deadlines", delta("autotuned_deadlines_total"))
	res.set("server.panics", delta("autotuned_panics_total"))
	res.set("server.duplicates", delta("autotuned_duplicates_total"))
	ratio := func(num, den string) float64 {
		if d := delta(den); d > 0 {
			return delta(num) / d
		}
		return 0
	}
	res.set("studystore.fsyncs_per_observe", ratio("autotuned_store_fsyncs_total", "autotuned_observes_total"))
	res.set("studystore.group_mean", ratio("autotuned_store_group_batches_total", "autotuned_store_group_commits_total"))
	res.set("studystore.group_max", traced.after["autotuned_store_group_max"])
	res.set("studystore.framed_bytes_per_record", ratio("autotuned_store_appended_bytes_total", "autotuned_store_appends_total"))

	appends := tb.dur("studystore.append", "")
	res.setSamples("studystore.append_us_per_batch", medianOr0(appends), len(appends))
	res.set("studystore.fs_write_us_per_batch", medianOr0(tb.dur("fs.write", "")))
	res.set("studystore.fs_fsync_us_per_batch", medianOr0(tb.dur("fs.fsync", "")))
	res.set("studystore.self_us_per_batch", medianOr0(tb.self("studystore.append", "")))

	// Tracing overhead on the workload's primary operation.
	op := "suggest"
	if p.workload == wlDurable {
		op = "observe"
	}
	base, with := medianOr0(plain.clientMS[op]), medianOr0(traced.clientMS[op])
	if base > 0 {
		res.set("trace.overhead_share", (with-base)/base)
	}
	res.set("server.recover_ms", float64(traced.recover)/float64(time.Millisecond))
}

// storeOpenProbe times studystore.Open, read-only, on the store as
// recovery would find it.
func storeOpenProbe(res *result, dir string) error {
	const opens = 5
	var ms []float64
	var st studystore.Stats
	for i := 0; i < opens; i++ {
		t0 := time.Now()
		s, err := studystore.Open(dir, studystore.Options{ReadOnly: true})
		took := time.Since(t0)
		if err != nil {
			return fmt.Errorf("store open probe: %w", err)
		}
		st = s.Stats()
		if err := s.Close(); err != nil {
			return err
		}
		ms = append(ms, float64(took)/float64(time.Millisecond))
	}
	open := stats.Median(ms)
	res.setSamples("studystore.open_ms", open, opens)
	res.set("studystore.replay_records_per_s", float64(st.Records)/(open/1000))
	res.set("studystore.segments", float64(st.Segments))
	res.set("studystore.torn_tail_bytes", float64(st.TornTailBytes))
	res.Info["store_records"] = float64(st.Records)
	return nil
}

// copyDir copies the regular files of src (a store directory is flat)
// into dst.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
