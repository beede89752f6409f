package trial

import (
	"context"
	"sync"

	"autotune/internal/space"
)

// evalKey identifies one evaluation: a configuration (by its canonical key)
// at a fidelity. The same config at a different fidelity is a different
// measurement.
type evalKey struct {
	cfg      string
	fidelity float64
}

// evalEntry is one cache slot. done is closed exactly once, when the
// leading evaluation finishes; ok/res/aborted are written before the close
// and read only after it.
type evalEntry struct {
	done    chan struct{}
	ok      bool
	res     Result
	aborted bool
}

// evalCache deduplicates evaluations of identical (config, fidelity) pairs
// across an entire run, with single-flight semantics: the first trial to
// request a key becomes the leader and actually runs the environment;
// concurrent requesters block until the leader finishes and then reuse its
// result. Only successful, non-aborted outcomes are cached — a failed
// leader removes its slot so a later duplicate re-runs instead of
// inheriting the failure. Optimizers re-suggesting an already-measured
// configuration (common late in a run over discrete spaces) therefore cost
// zero environment time.
type evalCache struct {
	mu sync.Mutex
	m  map[evalKey]*evalEntry
}

func newEvalCache() *evalCache {
	return &evalCache{m: make(map[evalKey]*evalEntry)}
}

// claim returns the entry for key and whether the caller is the leader
// (created the slot and must run the evaluation and then fulfill it).
func (c *evalCache) claim(key evalKey) (*evalEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		return e, false
	}
	e := &evalEntry{done: make(chan struct{})}
	c.m[key] = e
	return e, true
}

// fulfill publishes the leader's outcome. Successes stay cached; failures
// and aborts vacate the slot so the next requester becomes a fresh leader.
func (c *evalCache) fulfill(key evalKey, e *evalEntry, out trialOutcome) {
	c.mu.Lock()
	if out.err == nil && !out.aborted {
		e.ok = true
		e.res = out.res
	} else {
		delete(c.m, key)
	}
	c.mu.Unlock()
	close(e.done)
}

// prime installs an already-completed result, used by RunContext to
// re-warm the cache from the records a study replayed before the run.
func (c *evalCache) prime(key evalKey, res Result) {
	c.mu.Lock()
	if _, exists := c.m[key]; !exists {
		e := &evalEntry{done: make(chan struct{}), ok: true, res: res}
		close(e.done)
		c.m[key] = e
	}
	c.mu.Unlock()
}

// runOneCached is runOne behind the deduplicating cache. A cache hit
// returns the original measurement's value and metrics at zero cost and is
// marked cacheHit so accounting (journal record, Report.CacheHits) can
// distinguish it; the environment is not touched. With a nil cache it is
// exactly runOne.
func runOneCached(ctx context.Context, env Environment, cache *evalCache, cfg space.Config, fidelity, abortAbove float64) trialOutcome {
	if cache == nil {
		return runOne(ctx, env, cfg, fidelity, abortAbove)
	}
	key := evalKey{cfg: cfg.Key(), fidelity: fidelity}
	for {
		e, leader := cache.claim(key)
		if leader {
			out := runOne(ctx, env, cfg, fidelity, abortAbove)
			cache.fulfill(key, e, out)
			return out
		}
		select {
		case <-e.done:
		case <-ctx.Done():
			return trialOutcome{err: ctx.Err()}
		}
		if e.ok {
			res := e.res
			res.CostSeconds = 0 // nothing ran; the original already paid
			return trialOutcome{res: res, cacheHit: true}
		}
		// The leader failed and vacated the slot; loop to claim it.
	}
}
