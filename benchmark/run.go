package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"autotune/internal/server"
	"autotune/internal/stats"
)

// run.go is the timed run (tracing off): every workload is one daemon
// life-cycle, measured from outside the process.
//
//	set-up      spawn the daemon, create (and for restart preload) the studies
//	steady      the workload's own traffic mix, a fixed operation count
//	check       the durable history equals what was acked, counters equal what was sent
//	crash burst single observes on the canary studies; kill -9 lands mid-flight
//	recovery    boot -> /readyz -> first suggests -> kill -9, several times
//	check       again, on the recovered daemon
//
// restart has no steady part: its store is preloaded in set-up and the
// recovery boots are what it times.

// instance is one daemon with the clients driving it.
type instance struct {
	d       *daemon
	store   string
	workers []*worker
	led     *ledger
	sent    *atomic.Int64 // API requests sent to this daemon
}

// runner carries one run's fixed inputs.
type runner struct {
	ctx     context.Context
	plan    *plan
	bin     string
	workdir string
	res     *result
}

// boot execs a daemon on store and connects the plan's clients to it.
func (r *runner) boot(store string, led *ledger) (*instance, error) {
	d, err := startDaemon(r.bin, store)
	if err != nil {
		return nil, err
	}
	inst := &instance{d: d, store: store, led: led, sent: new(atomic.Int64)}
	for i := 0; i < r.plan.sz.Clients; i++ {
		inst.workers = append(inst.workers, &worker{ctx: r.ctx, c: d.client(inst.sent), led: led})
	}
	return inst, nil
}

// enter starts a new part of the run: the clients' requests are recorded
// in the returned phase from here on.
func (inst *instance) enter() *phase {
	ph := newPhase()
	for _, w := range inst.workers {
		w.ph = ph
	}
	return ph
}

// setUp spawns a daemon on a fresh store and creates the plan's studies
// through the wire; restart also preloads its histories with one batched
// observe per study. It returns the instance and the time from exec to
// the last study being ready.
func (r *runner) setUp(led *ledger) (*instance, time.Duration, error) {
	store, err := os.MkdirTemp(r.workdir, "store-")
	if err != nil {
		return nil, 0, err
	}
	inst, err := r.boot(store, led)
	if err != nil {
		return nil, 0, err
	}
	p := r.plan
	all := p.allStudies()
	setup := inst.enter()
	err = parallel(inst.workers, func(i int, w *worker) error {
		for j := i; j < len(all); j += len(inst.workers) {
			s := all[j]
			created, err := w.c.CreateStudy(r.ctx, s.Name, s.Spec)
			if err == nil && !created {
				err = fmt.Errorf("study %s already existed in a fresh store", s.Name)
			}
			setup.record(nil, time.Now(), err)
			if err != nil {
				return err
			}
			n := 0
			switch {
			case p.workload != wlRestart:
			case j < len(p.random):
				n = p.sz.RestartTrials
			case j < len(p.random)+len(p.bo):
				n = p.sz.RestartBOTrials
			}
			if n > 0 {
				if err := w.observe(s, preload(s, n)...); err != nil {
					return err
				}
			}
		}
		return nil
	})
	took := time.Since(inst.d.started)
	r.res.addPhase(setup)
	if err != nil {
		inst.discard()
		return nil, 0, r.withDaemonOutput(err, inst.d)
	}
	return inst, took, nil
}

// preload is a study's preloaded history: n configurations sampled from
// its space with a generator derived from the study's own seed (itself
// derived from the run's seed, or from boSeed), evaluated by its
// objective, under trial IDs 0..n-1.
func preload(s study, n int) []server.Observation {
	rng := rand.New(rand.NewSource(int64(mix(s.Spec.Seed, "preload") >> 1)))
	obs := make([]server.Observation, n)
	for i := range obs {
		cfg := s.sp.Sample(rng)
		obs[i] = server.Observation{Trial: int64(i), Config: cfg, Value: s.eval(cfg, int64(i))}
	}
	return obs
}

// discard kills the daemon and removes its store.
func (inst *instance) discard() {
	inst.d.kill()
	// The whole work directory is removed again when the run ends.
	os.RemoveAll(inst.store)
}

// withDaemonOutput attaches what the daemon printed to a failure.
func (r *runner) withDaemonOutput(err error, d *daemon) error {
	return fmt.Errorf("%w\n--- autotuned output ---\n%s", err, d.output.String())
}

// steadyResult is what the steady part measured.
type steadyResult struct {
	st     phaseStats
	wall   float64 // seconds to finish the fixed work, objective time excluded
	cpuMS  float64 // daemon CPU over the part
	regret []float64
}

// steady runs the workload's own mix.
func (r *runner) steady(inst *instance) (steadyResult, error) {
	p, sz := r.plan, r.plan.sz
	before, err := inst.d.readProc()
	if err != nil {
		return steadyResult{}, err
	}
	ph := inst.enter()
	evalTime := make([]time.Duration, len(inst.workers))
	elapsed := make([]time.Duration, len(inst.workers))
	best := make([]float64, len(p.bo))
	err = parallel(inst.workers, func(i int, w *worker) (err error) {
		defer func(t0 time.Time) { elapsed[i] = time.Since(t0) }(time.Now())
		nw := len(inst.workers)
		switch p.workload {
		case wlFleet:
			// Round-robin over the studies; client i sends requests
			// i, i+C, i+2C, ...
			for q := i; q < sz.FleetRequests && err == nil; q += nw {
				_, err = w.suggest(p.random[q%len(p.random)], sz.FleetCount)
			}
		case wlDurable:
			for round := 0; round < sz.DurableRounds; round++ {
				for j := i; j < len(p.random) && err == nil; j += nw {
					err = suggestThenObserveEach(w, p.random[j], sz.DurableBatch)
				}
			}
		case wlBO:
			// One client per study.
			for j := i; j < len(p.bo) && err == nil; j += nw {
				var spent time.Duration
				best[j], spent, err = runStudy(w, p.bo[j], sz.BOBudget)
				evalTime[i] += spent
			}
		}
		return err
	})
	r.res.addPhase(ph)
	if err != nil {
		return steadyResult{}, r.withDaemonOutput(err, inst.d)
	}
	after, err := inst.d.readProc()
	if err != nil {
		return steadyResult{}, err
	}
	out := steadyResult{st: ph.reduce(), cpuMS: after.cpuMS - before.cpuMS}
	for i := range elapsed {
		if w := (elapsed[i] - evalTime[i]).Seconds(); w > out.wall {
			out.wall = w
		}
	}
	for j, s := range p.bo {
		out.regret = append(out.regret, s.regretNorm(best[j]))
	}
	return out, nil
}

// verify checks the exactly-once contract on a live daemon: every acked
// (study, trial) is in GET trials once with the value that was sent, and
// nothing else is there except observations that were in flight when a
// kill landed. It also checks the daemon's counters against what the
// clients sent. fresh says the daemon has served this ledger's whole
// life (so autotuned_observes_total must equal the acked count).
func (r *runner) verify(inst *instance, when string, fresh bool) error {
	all := r.plan.allStudies()
	var found atomic.Int64
	problems := make([][]string, len(inst.workers))
	err := parallel(inst.workers, func(i int, w *worker) error {
		for j := i; j < len(all); j += len(inst.workers) {
			recs, err := w.c.Trials(r.ctx, all[j].Name)
			if err != nil {
				return fmt.Errorf("GET trials %s: %w", all[j].Name, err)
			}
			seen := map[int64]bool{}
			for _, rec := range recs {
				k := ackKey{all[j].Name, int64(rec.ID)}
				want, acked := inst.led.acked[k]
				if !acked {
					var unsure bool
					if want, unsure = inst.led.unsure[k]; !unsure {
						problems[i] = append(problems[i], fmt.Sprintf("%s trial %d is durable but was never sent", k.study, k.trial))
						continue
					}
				}
				if seen[k.trial] {
					problems[i] = append(problems[i], fmt.Sprintf("%s trial %d returned twice", k.study, k.trial))
				}
				seen[k.trial] = true
				if rec.Value != want {
					problems[i] = append(problems[i], fmt.Sprintf("%s trial %d: value %v, sent %v", k.study, k.trial, rec.Value, want))
				}
				if acked {
					found.Add(1)
				}
			}
		}
		return nil
	})
	if err != nil {
		return r.withDaemonOutput(err, inst.d)
	}
	var bad []string
	for _, ps := range problems {
		bad = append(bad, ps...)
	}
	acked := int64(inst.led.ackedCount())
	if n := found.Load(); n != acked {
		bad = append(bad, fmt.Sprintf("%d of %d acked observations are in the durable history", n, acked))
	}
	r.res.check("exactly-once "+when, len(bad) == 0, firstFew(bad))

	m, err := scrapeMetrics(inst.d.base)
	if err != nil {
		return err
	}
	sent := inst.sent.Load()
	ok := int64(m["autotuned_requests_total"]) == sent
	detail := fmt.Sprintf("requests_total %d, sent %d", int64(m["autotuned_requests_total"]), sent)
	if fresh {
		ok = ok && int64(m["autotuned_observes_total"]) == acked
		detail += fmt.Sprintf("; observes_total %d, acked %d", int64(m["autotuned_observes_total"]), acked)
	}
	r.res.check("counters "+when, ok, detail)
	return nil
}

func firstFew(msgs []string) string {
	if len(msgs) > 5 {
		msgs = append(msgs[:5:5], fmt.Sprintf("... and %d more", len(msgs)-5))
	}
	var b bytes.Buffer
	for i, m := range msgs {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(m)
	}
	return b.String()
}

// burstResult is what the acked part of the crash burst measured.
type burstResult struct {
	st           phaseStats
	diskPerObs   float64
	hwmMB        float64
	storeMetrics map[string]float64
}

// crashBurst writes to the canary studies: first a fixed number of
// rounds that are all acked (so the store's size per observation is an
// exact figure), then further single observes until kill -9 lands with
// requests in flight.
func (r *runner) crashBurst(inst *instance) (burstResult, error) {
	p, sz := r.plan, r.plan.sz
	ph := inst.enter()
	canary := func(i, round int) study {
		return p.canaries[i*sz.CanaryPerClient+round%sz.CanaryPerClient]
	}
	// The acked part runs on one client: an unloaded daemon answers a
	// lone client's observes at a steady latency, where two clients fall
	// in and out of step with each other's fsyncs and their median reads
	// 0.58 ms or 0.69 ms depending on which mode a short burst caught.
	err := parallel(inst.workers[:1], func(i int, w *worker) error {
		for round := 0; round < sz.BurstRounds; round++ {
			if err := suggestThenObserveEach(w, canary(i, round), sz.DurableBatch); err != nil {
				return err
			}
		}
		return nil
	})
	r.res.addPhase(ph)
	if err != nil {
		return burstResult{}, r.withDaemonOutput(err, inst.d)
	}
	out := burstResult{st: ph.reduce()}
	bytesOnDisk, err := dirBytes(inst.store)
	if err != nil {
		return out, err
	}
	out.diskPerObs = float64(bytesOnDisk) / float64(inst.led.ackedCount())
	ps, err := inst.d.readProc()
	if err != nil {
		return out, err
	}
	out.hwmMB = ps.hwmMB
	if out.storeMetrics, err = scrapeMetrics(inst.d.base); err != nil {
		return out, err
	}

	// Mid-flight kill. Every observation is entered as doubtful before
	// it is sent and promoted when its ack arrives; errors from here on
	// are the kill and not failures.
	acks := make(chan struct{}, sz.KillAfterAcks)
	clients, stopped := context.WithCancel(r.ctx)
	defer stopped()
	var killer sync.WaitGroup
	killer.Add(1)
	// The killer ends on the KillAfterAcks-th ack, or once the clients
	// have stopped (only after a harness error; the kill still has to
	// happen); the function waits for it.
	go func() {
		defer killer.Done()
		defer inst.d.kill()
		for n := 0; n < sz.KillAfterAcks; n++ {
			select {
			case <-acks:
			case <-clients.Done():
				return
			}
		}
	}()
	err = parallel(inst.workers, func(i int, w *worker) error {
		for round := sz.BurstRounds; ; round++ {
			s := canary(i, round)
			trials, err := w.c.Suggest(r.ctx, s.Name, sz.DurableBatch)
			if err != nil {
				return nil
			}
			obs, err := evaluate(s, trials)
			if err != nil {
				return err
			}
			for _, o := range obs {
				w.led.doubt(s.Name, []server.Observation{o})
				if _, err := w.c.Observe(r.ctx, s.Name, o); err != nil {
					return nil
				}
				w.led.ack(s.Name, []server.Observation{o})
				select {
				case acks <- struct{}{}:
				default:
				}
			}
		}
	})
	stopped()
	killer.Wait()
	return out, err
}

// bootResult is one recovery.
type bootResult struct {
	recovery time.Duration // exec -> /readyz 200 -> first suggests answered
	cpuMS    float64
	hwmMB    float64
	stream   []byte
}

// bootSamples is what the recovery boots measured together.
type bootSamples struct {
	boots     []bootResult
	suggestMS []float64
	requests  int
}

// recoveries boots the daemon on the killed store several times. Each
// boot waits for /readyz, asks every bo study and a few random studies
// for their next configurations, and is killed again. Suggests are not
// durable, so every boot must answer with the same bytes.
func (r *runner) recoveries(store string, led *ledger) (bootSamples, error) {
	p, sz := r.plan, r.plan.sz
	var out bootSamples
	pool := append(append([]study(nil), p.random...), p.canaries...)
	ph := newPhase()
	defer func() { r.res.addPhase(ph) }()
	for b := 0; b < sz.Boots; b++ {
		inst, err := r.boot(store, led)
		if err != nil {
			return out, err
		}
		d, w := inst.d, inst.workers[0]
		w.ph = ph
		if err := w.c.Ready(r.ctx); err != nil {
			d.kill()
			return out, r.withDaemonOutput(fmt.Errorf("boot %d: /readyz: %w", b+1, err), d)
		}
		var stream bytes.Buffer
		ask := func(s study, n int) error {
			trials, err := w.suggest(s, n)
			if err != nil {
				return err
			}
			return json.NewEncoder(&stream).Encode(trials)
		}
		for _, s := range p.bo {
			if err == nil {
				err = ask(s, 1)
			}
		}
		for k := 0; k < sz.BootSuggests && err == nil; k++ {
			err = ask(pool[k%len(pool)], sz.DurableBatch)
		}
		br := bootResult{recovery: time.Since(d.started), stream: stream.Bytes()}
		if err != nil {
			d.kill()
			return out, r.withDaemonOutput(fmt.Errorf("boot %d: %w", b+1, err), d)
		}
		ps, err := d.readProc()
		if err != nil {
			d.kill()
			return out, err
		}
		br.cpuMS, br.hwmMB = ps.cpuMS, ps.hwmMB
		out.requests += len(p.bo) + sz.BootSuggests
		if b == 0 || b == sz.Boots-1 {
			if err := r.verify(inst, fmt.Sprintf("after kill -9, boot %d", b+1), false); err != nil {
				d.kill()
				return out, err
			}
		}
		d.kill()
		out.boots = append(out.boots, br)
	}
	for _, s := range ph.suggests {
		out.suggestMS = append(out.suggestMS, s.ms)
	}
	same := true
	for _, b := range out.boots[1:] {
		same = same && bytes.Equal(b.stream, out.boots[0].stream)
	}
	r.res.check("post-boot suggest stream identical on every boot", same && len(out.boots[0].stream) > 0,
		fmt.Sprintf("%d boots, %d bytes each", len(out.boots), len(out.boots[0].stream)))
	return out, nil
}

// timedRun is one whole run with tracing off.
func timedRun(ctx context.Context, p *plan, bin, workdir string, res *result) error {
	r := &runner{ctx: ctx, plan: p, bin: bin, workdir: workdir, res: res}
	sz := p.sz

	// Set-up, several times; the last instance is the one that is used.
	var setups []float64
	var inst *instance
	for rep := 0; rep < sz.SetupReps; rep++ {
		if inst != nil {
			inst.discard()
		}
		var took time.Duration
		var err error
		if inst, took, err = r.setUp(newLedger()); err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
	}
	// The crash burst kills this daemon; an early return must too. kill
	// is harmless on a process that is already gone.
	defer inst.d.kill()
	res.setSamples("setup_s", stats.Median(setups), len(setups))

	var sr steadyResult
	if p.workload != wlRestart {
		var err error
		if sr, err = r.steady(inst); err != nil {
			return err
		}
		if err := r.verify(inst, "after the timed part", true); err != nil {
			return err
		}
	}
	burst, err := r.crashBurst(inst)
	if err != nil {
		return err
	}
	boots, err := r.recoveries(inst.store, inst.led)
	if err != nil {
		return err
	}

	// Reduce to the end-to-end metrics. Each one comes from the part of
	// the life-cycle where this workload produces it (see README).
	var recov, hwms []float64
	var bootCPU, bootWall float64
	for _, b := range boots.boots {
		recov = append(recov, b.recovery.Seconds())
		hwms = append(hwms, b.hwmMB)
		bootCPU += b.cpuMS
		bootWall += b.recovery.Seconds()
	}
	res.setSamples("recovery_s", stats.Median(recov), len(recov))
	res.set("disk_bytes_per_observe", burst.diskPerObs)

	suggestMS, observeMS := sr.st.suggestMS, sr.st.observeMS
	if p.workload == wlRestart {
		suggestMS = boots.suggestMS
		res.set("throughput_rps", float64(boots.requests)/bootWall)
		res.set("study_wall_s", bootWall)
		res.set("daemon_cpu_ms_per_req", bootCPU/float64(boots.requests))
		res.set("daemon_rss_mb", stats.Median(hwms))
	} else {
		res.set("throughput_rps", sr.st.throughput)
		res.set("study_wall_s", sr.wall)
		res.set("daemon_cpu_ms_per_req", sr.cpuMS/float64(sr.st.attempted))
		res.set("daemon_rss_mb", burst.hwmMB)
	}
	if p.workload != wlDurable {
		// Only observe-durable's own mix is made of single observes on
		// an otherwise idle daemon. suggest-fleet and restart have none,
		// and bo-study's wait behind the other study's suggest on the
		// daemon's one P (0.7 ms or 4 ms, by luck of the interleaving).
		// Their observe latency is the crash burst's acked observes.
		observeMS = burst.st.observeMS
	}
	res.setLatency("suggest", suggestMS)
	res.setLatency("observe", observeMS)
	if len(sr.regret) > 0 {
		res.Info["regret_norm"] = stats.Mean(sr.regret)
		ok := true
		for _, g := range sr.regret {
			ok = ok && g <= regretCeiling
		}
		res.check("bo studies beat the regret ceiling", ok, fmt.Sprintf("regret_norm per study %v, ceiling %v", sr.regret, regretCeiling))
	}
	res.Info["burst_group_mean"] = burst.storeMetrics["autotuned_store_group_mean"]
	return nil
}

// regretCeiling fails a bo-study run whose surrogate stopped working: a
// study that only explored at random ends far above it, a working one
// far below (see README for the measured range).
const regretCeiling = 0.5

// runDir makes a fresh per-run directory under base (an absolute path
// that exists) and returns it with the function that removes it.
func runDir(base string) (string, func(), error) {
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
