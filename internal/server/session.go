package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"

	"autotune/internal/core"
	"autotune/internal/optimizer"
	"autotune/internal/sched"
	"autotune/internal/space"
	"autotune/internal/studystore"
	"autotune/internal/trial"
)

// session.go multiplexes one study's optimizer state behind a
// context-aware lock. Every mutation follows the WAL contract: the
// observation batch is durable in the study store before the optimizer
// sees it or the client gets an ack, so a crash at any instant loses
// nothing that was acknowledged. Optimizer calls run under sched.Guard —
// a panicking strategy degrades its own study to read-only instead of
// taking the process (and its sibling studies) down.

// Sentinel errors the handlers translate into HTTP statuses.
var (
	// errReadOnlyStudy marks a study that cannot accept suggests or
	// observes: it was recovered without a meta record, or its optimizer
	// panicked and was retired.
	errReadOnlyStudy = errors.New("server: study is read-only")
	// errExhausted mirrors optimizer.ErrExhausted at the session boundary.
	errExhausted = errors.New("server: study exhausted")
)

// storeFailure wraps an error from the study store so handlers can tell
// "the durable layer failed" (degrade the whole server to read-only)
// apart from client mistakes (400) and optimizer trouble (500).
type storeFailure struct{ err error }

func (e *storeFailure) Error() string { return "store failure: " + e.err.Error() }
func (e *storeFailure) Unwrap() error { return e.err }

// session is one study: its immutable descriptor plus the live optimizer
// and dedup state, serialized by a capacity-1 channel lock so waiters
// respect request deadlines (a sync.Mutex would block past them).
type session struct {
	study string
	meta  studyMeta
	sp    *space.Space // immutable after construction; nil for orphans

	// st is the store this study's history lives in; every append goes
	// here. Set once at create/recovery, immutable after — which is what
	// lets histories survive shard-count changes (the hash may route the
	// study to a different shard, but its log stays where it is).
	st *studystore.Store

	lk chan struct{} // capacity-1 token; lock(ctx)/unlock()

	// Guarded by lk.
	opt      optimizer.Optimizer // nil when read-only
	degraded string              // why opt is nil (error text for clients)
	seen     map[int64]struct{}  // acked trial IDs: the dedup set
	records  []trial.TrialRecord // observed trials: recovered ones by ID, then ack order
	nextID   int64               // next trial ID to hand out

	observed atomic.Int64 // len(records) mirror for lock-free listing
	readOnly atomic.Bool  // opt == nil mirror for lock-free listing
}

// lock acquires the session, giving up when ctx expires.
func (ss *session) lock(ctx context.Context) error {
	select {
	case ss.lk <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("study %q busy: %w", ss.study, ctx.Err())
	}
}

func (ss *session) unlock() { <-ss.lk }

// newSession builds a live session from a validated meta descriptor.
func newSession(meta studyMeta) (*session, error) {
	sp, err := buildSpace(meta.Space)
	if err != nil {
		return nil, err
	}
	opt, err := core.NewOptimizer(meta.Optimizer, sp, rand.New(rand.NewSource(meta.Seed)))
	if err != nil {
		return nil, err
	}
	return &session{
		study: meta.Study,
		meta:  meta,
		sp:    sp,
		lk:    make(chan struct{}, 1),
		opt:   opt,
		seen:  make(map[int64]struct{}),
	}, nil
}

// orphanSession wraps a study that exists in the store but has no usable
// meta record (e.g. a log produced by another tool). Its history stays
// queryable; suggest and observe report read-only.
func orphanSession(study, why string, recs []trial.TrialRecord) *session {
	ss := &session{
		study:    study,
		meta:     studyMeta{Study: study},
		lk:       make(chan struct{}, 1),
		degraded: why,
		seen:     make(map[int64]struct{}),
		records:  recs,
	}
	for _, r := range recs {
		ss.seen[int64(r.ID)] = struct{}{}
		if int64(r.ID) >= ss.nextID {
			ss.nextID = int64(r.ID) + 1
		}
	}
	ss.observed.Store(int64(len(recs)))
	ss.readOnly.Store(true)
	return ss
}

// recoverSession rebuilds a session from its durable records: decode the
// meta descriptor, re-seed a fresh optimizer, and replay observations in
// ID order. The resumed suggest stream is a pure function of (seed,
// replayed history), so two recoveries of the same log are bitwise
// identical. Records that fail to decode or a strategy that panics on
// replay degrade the study to read-only rather than failing the boot.
func recoverSession(study string, recs []studystore.Record) *session {
	var meta *studyMeta
	var hist []trial.TrialRecord
	for _, r := range recs {
		if r.ID == metaID {
			var m studyMeta
			if err := json.Unmarshal(r.Payload, &m); err == nil && m.Meta >= 1 {
				meta = &m
			}
			continue
		}
		tr, err := trial.DecodeRecord(r.Payload)
		if err != nil {
			return orphanSession(study, fmt.Sprintf("record %d undecodable: %v", r.ID, err), hist)
		}
		tr.ID = int(r.ID) // the store key is authoritative
		hist = append(hist, tr)
	}
	if meta == nil {
		return orphanSession(study, "no meta record (log written by another tool?)", hist)
	}
	ss, err := newSession(*meta)
	if err != nil {
		return orphanSession(study, fmt.Sprintf("meta rejected: %v", err), hist)
	}
	for _, tr := range hist {
		cfg, err := normalizeConfig(ss.sp, tr.Config)
		if err != nil {
			ss.retire(fmt.Sprintf("replay trial %d: %v", tr.ID, err))
			break
		}
		tr.Config = cfg
		if gerr := sched.Guard(func() error { return ss.opt.Observe(cfg, tr.Value) }); gerr != nil {
			ss.retire(fmt.Sprintf("replay trial %d: %v", tr.ID, gerr))
			break
		}
	}
	for _, tr := range hist {
		ss.seen[int64(tr.ID)] = struct{}{}
		if int64(tr.ID) >= ss.nextID {
			ss.nextID = int64(tr.ID) + 1
		}
	}
	ss.records = hist
	ss.observed.Store(int64(len(hist)))
	return ss
}

// retire drops the optimizer and leaves the study read-only. Callers
// hold lk (or, during recovery, exclusive ownership).
func (ss *session) retire(why string) {
	ss.opt = nil
	ss.degraded = why
	ss.readOnly.Store(true)
}

// writable reports errReadOnlyStudy with the degrade reason attached.
func (ss *session) writable() error {
	if ss.opt == nil {
		return fmt.Errorf("%w: %s", errReadOnlyStudy, ss.degraded)
	}
	return nil
}

// suggest proposes up to n configurations and assigns provisional trial
// IDs. IDs become durable only when observed; after a crash, unobserved
// IDs are reassigned (observes carry the config, so acks never depend on
// server-side suggest state).
func (ss *session) suggest(ctx context.Context, n int) ([]SuggestedTrial, bool, error) {
	if err := ss.lock(ctx); err != nil {
		return nil, false, err
	}
	defer ss.unlock()
	if err := ss.writable(); err != nil {
		return nil, false, err
	}
	var cfgs []space.Config
	var serr error
	gerr := sched.Guard(func() error {
		if bs, ok := ss.opt.(optimizer.BatchSuggester); ok && n > 1 {
			cfgs, serr = bs.SuggestN(n)
			return nil
		}
		for i := 0; i < n; i++ {
			cfg, err := ss.opt.Suggest()
			if err != nil {
				serr = err
				return nil
			}
			cfgs = append(cfgs, cfg)
		}
		return nil
	})
	if gerr != nil {
		ss.retire(fmt.Sprintf("suggest panicked: %v", firstLine(gerr)))
		return nil, false, gerr
	}
	exhausted := errors.Is(serr, optimizer.ErrExhausted)
	if serr != nil && !exhausted {
		return nil, false, serr
	}
	if len(cfgs) == 0 {
		return nil, true, errExhausted
	}
	out := make([]SuggestedTrial, len(cfgs))
	for i, cfg := range cfgs {
		out[i] = SuggestedTrial{Trial: ss.nextID, Config: cfg}
		ss.nextID++
	}
	return out, exhausted, nil
}

// observe applies a batch exactly once: new (study, trial) pairs are made
// durable under one fsync barrier, then fed to the optimizer, then acked.
// Pairs already acked — by an earlier request or earlier in this batch —
// count as duplicates and change nothing, which is what makes client
// retries safe. A store failure is returned before any state changes; an
// optimizer panic after the barrier retires the study but the batch stays
// acked (it is durable, and replay will surface the same panic).
func (ss *session) observe(ctx context.Context, obs []Observation) (acked, dups int, err error) {
	if err := ss.lock(ctx); err != nil {
		return 0, 0, err
	}
	defer ss.unlock()
	if err := ss.writable(); err != nil {
		return 0, 0, err
	}

	type pending struct {
		tr  trial.TrialRecord
		cfg space.Config
	}
	var fresh []pending
	var recs []studystore.Record
	batchSeen := make(map[int64]struct{}, len(obs))
	for _, o := range obs {
		if o.Trial < 0 {
			return 0, 0, fmt.Errorf("trial ID %d is negative", o.Trial)
		}
		if _, dup := ss.seen[o.Trial]; dup {
			dups++
			continue
		}
		if _, dup := batchSeen[o.Trial]; dup {
			dups++
			continue
		}
		cfg, err := normalizeConfig(ss.sp, o.Config)
		if err != nil {
			return 0, 0, fmt.Errorf("trial %d: %w", o.Trial, err)
		}
		if math.IsNaN(o.Value) || math.IsInf(o.Value, 0) {
			return 0, 0, fmt.Errorf("trial %d: value must be finite", o.Trial)
		}
		batchSeen[o.Trial] = struct{}{}
		tr := trial.TrialRecord{
			ID:          int(o.Trial),
			Config:      cfg,
			Value:       o.Value,
			CostSeconds: o.CostSeconds,
			Metrics:     o.Metrics,
		}
		payload, err := trial.EncodeRecord(tr)
		if err != nil {
			return 0, 0, err
		}
		fresh = append(fresh, pending{tr: tr, cfg: cfg})
		recs = append(recs, studystore.Record{Study: ss.study, ID: o.Trial, Payload: payload})
	}
	if len(fresh) == 0 {
		return 0, dups, nil
	}

	// Durability barrier: nothing below runs unless the whole batch is
	// fsynced. On failure the store is poisoned and no pair was acked.
	if err := ss.st.AppendBatch(recs); err != nil {
		return 0, dups, &storeFailure{err}
	}

	var degrade error
	for _, p := range fresh {
		if degrade == nil {
			p := p
			if gerr := sched.Guard(func() error { return ss.opt.Observe(p.cfg, p.tr.Value) }); gerr != nil {
				degrade = gerr
				ss.retire(fmt.Sprintf("observe panicked: %v", firstLine(gerr)))
			}
		}
		// Durable regardless of the optimizer's opinion: ack and dedup.
		id := int64(p.tr.ID)
		ss.seen[id] = struct{}{}
		ss.records = append(ss.records, p.tr)
		if id >= ss.nextID {
			ss.nextID = id + 1
		}
		acked++
	}
	ss.observed.Store(int64(len(ss.records)))
	return acked, dups, degrade
}

// best returns the incumbent from the durable history (crashed trials
// excluded), so it also works for read-only studies.
func (ss *session) best(ctx context.Context) (BestResult, error) {
	if err := ss.lock(ctx); err != nil {
		return BestResult{}, err
	}
	defer ss.unlock()
	res := BestResult{Study: ss.study, Observed: len(ss.records)}
	for _, tr := range ss.records {
		if tr.Crashed {
			continue
		}
		if !res.Found || tr.Value < res.Value {
			res.Found = true
			res.Trial = int64(tr.ID)
			res.Value = tr.Value
			res.Config = tr.Config
		}
	}
	return res, nil
}

// pareto computes the non-dominated front over the named objectives, all
// minimized. "value" and "cost_seconds" read the record fields; any other
// name reads Metrics. Trials missing an objective are skipped.
func (ss *session) pareto(ctx context.Context, objectives []string) (ParetoResult, error) {
	if err := ss.lock(ctx); err != nil {
		return ParetoResult{}, err
	}
	defer ss.unlock()
	res := ParetoResult{Study: ss.study, Objectives: objectives}
	var pts []ParetoPoint
	for _, tr := range ss.records {
		if tr.Crashed {
			continue
		}
		vec := make([]float64, len(objectives))
		ok := true
		for i, name := range objectives {
			switch name {
			case "value":
				vec[i] = tr.Value
			case "cost", "cost_seconds":
				vec[i] = tr.CostSeconds
			default:
				v, has := tr.Metrics[name]
				if !has {
					ok = false
				}
				vec[i] = v
			}
		}
		if ok {
			pts = append(pts, ParetoPoint{Trial: int64(tr.ID), Config: tr.Config, Objectives: vec})
		}
	}
	for _, p := range pts {
		if !dominatedBy(p, pts) {
			res.Front = append(res.Front, p)
		}
	}
	sort.Slice(res.Front, func(i, j int) bool { return res.Front[i].Trial < res.Front[j].Trial })
	return res, nil
}

// dominatedBy reports whether q beats p on every objective and strictly
// on at least one, for any q in pts.
func dominatedBy(p ParetoPoint, pts []ParetoPoint) bool {
	for _, q := range pts {
		if q.Trial == p.Trial {
			continue
		}
		allLeq, oneLess := true, false
		for i := range p.Objectives {
			if q.Objectives[i] > p.Objectives[i] {
				allLeq = false
				break
			}
			if q.Objectives[i] < p.Objectives[i] {
				oneLess = true
			}
		}
		if allLeq && oneLess {
			return true
		}
	}
	return false
}

// trials returns a copy of the observed history: ack order on a live
// study, trial-ID order for what recoverSession replayed from the store.
func (ss *session) trials(ctx context.Context) ([]trial.TrialRecord, error) {
	if err := ss.lock(ctx); err != nil {
		return nil, err
	}
	defer ss.unlock()
	return append([]trial.TrialRecord(nil), ss.records...), nil
}

// info is the lock-free listing row (trial count and read-only flag are
// atomics; the rest of the descriptor is immutable).
func (ss *session) info() StudyInfo {
	return StudyInfo{
		Study:     ss.study,
		Optimizer: ss.meta.Optimizer,
		Trials:    int(ss.observed.Load()),
		ReadOnly:  ss.readOnly.Load(),
	}
}

// firstLine trims a guard error (panic value + full stack) to its first
// line for client-facing degrade reasons; the full text goes to the log.
func firstLine(err error) string {
	s := err.Error()
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}
