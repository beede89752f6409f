// Package transfer implements knowledge transfer across tuning sessions
// (tutorial slide 67): a store of past trials keyed by workload
// descriptors, similarity-based lookup, warm-starting an optimizer with
// prior observations, and crash imputation — failed configurations are
// re-injected everywhere with a made-up penalty of N x the worst observed
// score, so a new session never re-explores configurations known to crash.
package transfer

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"autotune/internal/optimizer"
	"autotune/internal/space"
)

// CrashValue is the sentinel recorded for configurations that crashed the
// system (no score could be measured).
var CrashValue = math.Inf(1)

// ErrEmpty is returned by lookups on an empty store.
var ErrEmpty = errors.New("transfer: empty store")

// Record is one completed tuning session: the workload descriptor it ran
// under and everything observed.
type Record struct {
	// Workload describes the session context as numeric features
	// (e.g. read_ratio, working_set_mb, request_rate).
	Workload map[string]float64
	// Trials holds observed configurations; Value may be CrashValue.
	Trials []Trial
}

// Trial is one stored observation.
type Trial struct {
	Config space.Config
	Value  float64
}

// Store accumulates session records. The zero value is ready to use.
type Store struct {
	records []Record
}

// Add appends a session record.
func (s *Store) Add(r Record) { s.records = append(s.records, r) }

// Len returns the number of stored sessions.
func (s *Store) Len() int { return len(s.records) }

// Records returns all stored sessions (live slice; do not modify).
func (s *Store) Records() []Record { return s.records }

// Similarity returns exp(-||a-b||) over the union of descriptor keys
// (missing keys count as 0), a simple kernel in [0, 1].
func Similarity(a, b map[string]float64) float64 {
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	d2 := 0.0
	for k := range keys {
		d := a[k] - b[k]
		d2 += d * d
	}
	return math.Exp(-math.Sqrt(d2))
}

// Nearest returns the k most similar sessions to the given workload,
// most similar first.
func (s *Store) Nearest(workload map[string]float64, k int) ([]Record, error) {
	if len(s.records) == 0 {
		return nil, ErrEmpty
	}
	type scored struct {
		rec Record
		sim float64
	}
	all := make([]scored, len(s.records))
	for i, r := range s.records {
		all[i] = scored{r, Similarity(workload, r.Workload)}
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].sim > all[b].sim })
	if k > len(all) {
		k = len(all)
	}
	out := make([]Record, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].rec
	}
	return out, nil
}

// crashPenaltyFactor scales the made-up score for crashed trials:
// penalty = factor x worst finite score in the replayed set. Crashed
// trials are always replayed — "bad samples: reuse everywhere".
const crashPenaltyFactor = 2

// WarmStartOptions controls WarmStart.
type WarmStartOptions struct {
	// MaxTrials bounds how many prior observations are replayed
	// (0 = all). The best trials are replayed preferentially.
	MaxTrials int
	// SimilarityWeighting, when true, inflates replayed scores from less
	// similar workloads toward the mean, shrinking their influence.
	SimilarityWeighting bool
	// TargetWorkload is required for SimilarityWeighting.
	TargetWorkload map[string]float64
}

// WarmStart replays prior observations from the given sessions into a fresh
// optimizer, implementing the tutorial's warm-start policy: good samples
// from similar workloads are reused as-is, crashed samples are reused
// everywhere with an imputed penalty score. Returns the number of replayed
// observations.
func WarmStart(o optimizer.Optimizer, recs []Record, opts WarmStartOptions) (int, error) {
	type item struct {
		t       Trial
		sim     float64
		crashed bool
	}
	var items []item
	worst, best := math.Inf(-1), math.Inf(1)
	var sum float64
	var finite int
	for _, r := range recs {
		sim := 1.0
		if opts.SimilarityWeighting {
			sim = Similarity(opts.TargetWorkload, r.Workload)
		}
		for _, t := range r.Trials {
			crashed := math.IsInf(t.Value, 1) || math.IsNaN(t.Value)
			if !crashed {
				if t.Value > worst {
					worst = t.Value
				}
				if t.Value < best {
					best = t.Value
				}
				sum += t.Value
				finite++
			}
			items = append(items, item{t, sim, crashed})
		}
	}
	if len(items) == 0 {
		return 0, nil
	}
	if finite == 0 {
		worst, best, sum = 1, 1, 1
		finite = 1
	}
	mean := sum / float64(finite)
	penalty := crashPenaltyFactor * worst
	if penalty <= worst { // e.g. negative scores
		penalty = worst + math.Abs(worst) + 1
	}
	// Replay best-first so MaxTrials keeps the most informative samples;
	// crashed samples sort last but are never dropped.
	sort.SliceStable(items, func(a, b int) bool {
		va, vb := items[a].t.Value, items[b].t.Value
		if items[a].crashed {
			va = math.Inf(1)
		}
		if items[b].crashed {
			vb = math.Inf(1)
		}
		return va < vb
	})
	replayed := 0
	budget := opts.MaxTrials
	for _, it := range items {
		if it.crashed {
			if err := o.Observe(it.t.Config, penalty); err != nil {
				return replayed, fmt.Errorf("transfer: replay crash: %w", err)
			}
			replayed++
			continue
		}
		if budget > 0 && replayed >= budget {
			continue
		}
		v := it.t.Value
		if opts.SimilarityWeighting {
			// Shrink toward the mean as similarity drops: a score from an
			// unrelated workload says little about this one.
			v = it.sim*v + (1-it.sim)*mean
		}
		if err := o.Observe(it.t.Config, v); err != nil {
			return replayed, fmt.Errorf("transfer: replay: %w", err)
		}
		replayed++
	}
	return replayed, nil
}

// TopConfigs returns the k best (lowest finite value) configurations across
// the given records, deduplicated, best first. Warm-start procedures
// typically re-evaluate these on the new workload first — replayed scores
// alone describe the *old* workload, so the best ones must be confirmed
// before an optimizer exploits them.
func TopConfigs(recs []Record, k int) []space.Config {
	type item struct {
		cfg space.Config
		val float64
	}
	var items []item
	for _, r := range recs {
		for _, t := range r.Trials {
			if math.IsInf(t.Value, 0) || math.IsNaN(t.Value) {
				continue
			}
			items = append(items, item{t.Config, t.Value})
		}
	}
	sort.SliceStable(items, func(a, b int) bool { return items[a].val < items[b].val })
	out := make([]space.Config, 0, k)
	seen := map[string]bool{}
	for _, it := range items {
		if len(out) >= k {
			break
		}
		key := it.cfg.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, it.cfg.Clone())
	}
	return out
}
