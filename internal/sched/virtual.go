package sched

import (
	"container/heap"
	"context"
)

// The virtual clock is a discrete-event simulation. Every primary attempt
// is evaluated inline, in batch-index order, on the caller's goroutine;
// the attempt's reported cost — scaled by the speed multiplier of the
// host slot it lands on — becomes its duration on a simulated timeline.
// Hedge decisions, cancellations, and completion order all derive from
// that timeline, so two identically-seeded runs produce byte-identical
// schedules regardless of machine load. The price is that evaluation
// concurrency is simulated, not real, which is exactly right for model
// environments whose cost is an output, not a measurement.

type vAttempt struct {
	task, attempt, worker int
	start, end            float64
	res                   Attempt
	cancelled             bool
}

type vTask struct {
	done     bool
	hedged   bool
	attempts []*vAttempt
}

const (
	evComplete = iota // completions sort before hedge checks at equal times
	evHedge
)

type vEvent struct {
	at      float64
	kind    int
	task    int
	attempt *vAttempt // completion events only
}

type vQueue []*vEvent

func (q vQueue) Len() int { return len(q) }
func (q vQueue) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.task != b.task {
		return a.task < b.task
	}
	an, bn := 0, 0
	if a.attempt != nil {
		an = a.attempt.attempt
	}
	if b.attempt != nil {
		bn = b.attempt.attempt
	}
	return an < bn
}
func (q vQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *vQueue) Push(x any)   { *q = append(*q, x.(*vEvent)) }
func (q *vQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

type vsim struct {
	p      *Pool
	freeAt []float64
	tasks  []*vTask
	events vQueue
}

// place picks the worker for an attempt wanted at time t: the
// gate-allowed worker (excluding exclude, -1 for none) that frees
// earliest, ties to the lowest index. If quarantine blocks every
// candidate the gate is ignored — a fully-quarantined fleet must degrade,
// not deadlock.
func (v *vsim) place(t float64, exclude int) (int, float64) {
	pick := func(gated, excluded bool) (int, float64) {
		best, bestStart := -1, 0.0
		for w := range v.freeAt {
			if excluded && w == exclude {
				continue
			}
			if gated && !v.p.allowHost(w) {
				continue
			}
			s := v.freeAt[w]
			if t > s {
				s = t
			}
			if best == -1 || s < bestStart {
				best, bestStart = w, s
			}
		}
		return best, bestStart
	}
	if w, s := pick(true, true); w != -1 {
		return w, s
	}
	if w, s := pick(false, true); w != -1 {
		return w, s
	}
	w, s := pick(false, false)
	return w, s
}

// startAttempt evaluates one attempt inline and books it on the timeline.
func (v *vsim) startAttempt(ctx context.Context, exec Exec, task, attemptNo int, t float64, exclude int) {
	res := runAttempt(ctx, exec, task, attemptNo)
	w, start := v.place(t, exclude)
	dur := res.Cost
	if dur < 0 {
		dur = 0
	}
	dur *= v.p.hostMult(w)
	at := &vAttempt{task: task, attempt: attemptNo, worker: w, start: start, end: start + dur, res: res}
	v.tasks[task].attempts = append(v.tasks[task].attempts, at)
	v.freeAt[w] = at.end
	heap.Push(&v.events, &vEvent{at: at.end, kind: evComplete, task: task, attempt: at})
	if attemptNo == 0 {
		// Hedge check: the threshold is computed from durations observed
		// before this batch, so the decision is independent of the order
		// completions are absorbed in below.
		if thr, ok := v.p.threshold(); ok && dur > thr {
			heap.Push(&v.events, &vEvent{at: start + thr, kind: evHedge, task: task})
		}
	}
}

func (p *Pool) runVirtual(ctx context.Context, n int, exec Exec, deliver func(Completion)) (float64, error) {
	v := &vsim{p: p, freeAt: make([]float64, p.opts.Workers), tasks: make([]*vTask, n)}
	for i := range v.tasks {
		v.tasks[i] = &vTask{}
	}
	// Graceful drain: a cancellation observed here stops new primaries
	// (a resumed run re-runs them); attempts already evaluated still
	// flow through the event loop and are delivered.
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			break
		}
		v.startAttempt(ctx, exec, i, 0, 0, -1)
	}
	elapsed := 0.0
	for v.events.Len() > 0 {
		e := heap.Pop(&v.events).(*vEvent)
		switch e.kind {
		case evHedge:
			t := v.tasks[e.task]
			if t.done || t.hedged || ctx.Err() != nil {
				continue
			}
			t.hedged = true
			p.countHedge()
			exclude := -1
			if p.opts.Workers > 1 && len(t.attempts) > 0 {
				exclude = t.attempts[0].worker
			}
			v.startAttempt(ctx, exec, e.task, 1, e.at, exclude)
		case evComplete:
			at := e.attempt
			if at.cancelled {
				continue
			}
			t := v.tasks[at.task]
			t.done = true
			var waste float64
			cancelled := 0
			for _, other := range t.attempts {
				if other == at || other.cancelled {
					continue
				}
				other.cancelled = true
				cancelled++
				w := e.at - other.start
				if w < 0 {
					w = 0
				}
				waste += w
				// Free the loser's worker early, but only if it is still
				// the last booking on that slot.
				if v.freeAt[other.worker] == other.end && e.at < other.end {
					v.freeAt[other.worker] = e.at
				}
			}
			p.recordHost(at.worker, at.res.Err == nil)
			if at.res.Err == nil {
				p.observeDuration(at.end - at.start)
			}
			if e.at > elapsed {
				elapsed = e.at
			}
			c := Completion{
				Task:    at.task,
				Attempt: at.attempt,
				Host:    p.host(at.worker),
				Hedged:  t.hedged,
				Cost:    at.end - at.start,
				Waste:   waste,
				Start:   at.start,
				End:     at.end,
				Result:  at.res,
			}
			p.countWin(c, cancelled)
			if deliver != nil {
				deliver(c)
			}
		}
	}
	return elapsed, ctx.Err()
}
