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
	"autotune/internal/space"
	"autotune/internal/studystore"
	"autotune/internal/trial"
)

// session.go puts one trial.Study behind a context-aware lock and the
// wire. The study core owns the write-ahead order — append to the store,
// then feed the optimizer, then ack (internal/trial/study.go) — along with
// dedup, the history and the incumbent; what the daemon adds here is the
// lock that respects request deadlines, coercion of wire configs into the
// study's space, the mapping of a store failure onto "the whole server is
// read-only", and lock-free mirrors of two counters for the listing.

// errExhausted mirrors optimizer.ErrExhausted at the session boundary.
var errExhausted = errors.New("server: study exhausted")

// storeFailure wraps an error from the study store so handlers can tell
// "the durable layer failed" (degrade the whole server to read-only)
// apart from client mistakes (400) and optimizer trouble (500).
type storeFailure struct{ err error }

func (e *storeFailure) Error() string { return "store failure: " + e.err.Error() }
func (e *storeFailure) Unwrap() error { return e.err }

// storeSink is a study's JournalSink in the daemon: trial.StudyJournal
// with a failed append marked as the durable layer's.
type storeSink struct{ *trial.StudyJournal }

func (k storeSink) Append(batch []trial.TrialRecord) error {
	if err := k.StudyJournal.Append(batch); err != nil {
		return &storeFailure{err}
	}
	return nil
}

// session is one study: its immutable descriptor plus the live study
// core, serialized by a capacity-1 channel lock so waiters respect request
// deadlines (a sync.Mutex would block past them).
type session struct {
	study string
	meta  studyMeta
	sp    *space.Space // immutable after construction; nil for orphans

	lk chan struct{} // capacity-1 token; lock(ctx)/unlock()

	// core is guarded by lk. Its sink appends to the store this study's
	// history lives in, fixed at create/recovery — which is what lets
	// histories survive shard-count changes (the hash may route the study
	// to a different shard, but its log stays where it is). A read-only
	// study (trial.ErrReadOnly) was recovered without a usable meta record
	// or had its optimizer fail.
	core *trial.Study

	observed atomic.Int64 // len(core.Records()) mirror for lock-free listing
	readOnly atomic.Bool  // core.Degraded() != "" mirror for lock-free listing
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

// unlock publishes the listing mirrors and releases the session.
func (ss *session) unlock() {
	ss.publish()
	<-ss.lk
}

func (ss *session) publish() {
	ss.observed.Store(int64(len(ss.core.Records())))
	ss.readOnly.Store(ss.core.Degraded() != "")
}

// newSession builds a live session from a validated meta descriptor,
// journaling into st.
func newSession(meta studyMeta, st *studystore.Store) (*session, error) {
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
		core:  trial.NewStudy(opt, storeSink{trial.NewStudyJournal(st, meta.Study)}),
	}, nil
}

// orphanSession wraps a study that exists in the store but has no usable
// meta record (e.g. a log produced by another tool). Its history stays
// queryable; suggest and observe report read-only.
func orphanSession(study, why string) *session {
	ss := &session{
		study: study,
		meta:  studyMeta{Study: study},
		lk:    make(chan struct{}, 1),
		core:  trial.NewStudy(nil, nil),
	}
	ss.core.Retire(why)
	return ss
}

// recoverSession rebuilds a session from its durable records in st: decode
// the meta descriptor, re-seed a fresh optimizer, and replay observations
// in ID order. The resumed suggest stream is a pure function of (seed,
// replayed history), so two recoveries of the same log are bitwise
// identical. Records that fail to decode or normalize, or a strategy that
// fails on replay (the returned error, stack included), leave the study
// read-only rather than failing the boot.
func recoverSession(study string, st *studystore.Store) (*session, error) {
	var meta *studyMeta
	var hist []trial.TrialRecord
	orphan := ""
	for _, r := range st.Records(study) {
		if r.ID == metaID {
			var m studyMeta
			if err := json.Unmarshal(r.Payload, &m); err == nil && m.Meta >= 1 {
				meta = &m
			}
			continue
		}
		tr, err := trial.DecodeRecord(r.Payload)
		if err != nil {
			orphan = fmt.Sprintf("record %d undecodable: %v", r.ID, err)
			break
		}
		tr.ID = int(r.ID) // the store key is authoritative
		hist = append(hist, tr)
	}
	if orphan == "" && meta == nil {
		orphan = "no meta record (log written by another tool?)"
	}
	var ss *session
	if orphan == "" {
		var err error
		if ss, err = newSession(*meta, st); err != nil {
			orphan = fmt.Sprintf("meta rejected: %v", err)
		}
	}
	if orphan != "" {
		ss = orphanSession(study, orphan)
	}
	// Records hold configs typed by the space, exactly as a live session's
	// do. One that will not normalize retires the optimizer: what it had
	// observed by then no longer matters, so nothing is fed to it at all.
	for i := 0; i < len(hist) && ss.sp != nil; i++ {
		cfg, err := ss.sp.Normalize(hist[i].Config)
		if err != nil {
			ss.core.Retire(fmt.Sprintf("replay trial %d: %v", hist[i].ID, err))
			break
		}
		hist[i].Config = cfg
	}
	err := ss.core.Replay(hist)
	ss.publish()
	return ss, err
}

// suggest proposes up to n configurations under provisional trial IDs.
// IDs become durable only when observed; after a crash, unobserved IDs
// are reassigned (observes carry the config, so acks never depend on
// server-side suggest state).
func (ss *session) suggest(ctx context.Context, n int) ([]SuggestedTrial, bool, error) {
	if err := ss.lock(ctx); err != nil {
		return nil, false, err
	}
	defer ss.unlock()
	first, cfgs, exhausted, err := ss.core.Suggest(n)
	if err != nil {
		return nil, false, err
	}
	if len(cfgs) == 0 {
		return nil, true, errExhausted
	}
	out := make([]SuggestedTrial, len(cfgs))
	for i, cfg := range cfgs {
		out[i] = SuggestedTrial{Trial: int64(first + i), Config: cfg}
	}
	return out, exhausted, nil
}

// observe validates a batch and tells the study core, which applies it
// exactly once: new (study, trial) pairs durable under one fsync barrier,
// then fed to the optimizer, then acked; pairs already acked are
// duplicates and change nothing, which is what makes client retries safe.
// A store failure comes back as a storeFailure with no state changed; an
// optimizer panic after the barrier retires the study with the batch
// still acked. A duplicate is dropped by the core unread, so a retry is
// never rejected for its payload.
func (ss *session) observe(ctx context.Context, obs []Observation) (acked, dups int, err error) {
	if err := ss.lock(ctx); err != nil {
		return 0, 0, err
	}
	defer ss.unlock()
	if why := ss.core.Degraded(); why != "" {
		return 0, 0, fmt.Errorf("%w: %s", trial.ErrReadOnly, why)
	}
	batch := make([]trial.TrialRecord, len(obs))
	for i, o := range obs {
		if o.Trial < 0 {
			return 0, 0, fmt.Errorf("trial ID %d is negative", o.Trial)
		}
		batch[i] = trial.TrialRecord{ID: int(o.Trial)}
		if ss.core.Acked(int(o.Trial)) {
			continue
		}
		cfg, err := ss.sp.Normalize(o.Config)
		if err != nil {
			return 0, 0, fmt.Errorf("trial %d: %w", o.Trial, err)
		}
		if math.IsNaN(o.Value) || math.IsInf(o.Value, 0) {
			return 0, 0, fmt.Errorf("trial %d: value must be finite", o.Trial)
		}
		batch[i] = trial.TrialRecord{
			ID:          int(o.Trial),
			Config:      cfg,
			Value:       o.Value,
			CostSeconds: o.CostSeconds,
			Metrics:     o.Metrics,
		}
	}
	return ss.core.Observe(batch)
}

// best returns the incumbent from the durable history (crashed trials
// excluded), so it also works for read-only studies.
func (ss *session) best(ctx context.Context) (BestResult, error) {
	if err := ss.lock(ctx); err != nil {
		return BestResult{}, err
	}
	defer ss.unlock()
	res := BestResult{Study: ss.study, Observed: len(ss.core.Records())}
	if tr, ok := ss.core.Best(); ok {
		res.Found = true
		res.Trial = int64(tr.ID)
		res.Value = tr.Value
		res.Config = tr.Config
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
	for _, tr := range ss.core.Records() {
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
	return append([]trial.TrialRecord(nil), ss.core.Records()...), nil
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
