package trial

import (
	"errors"
	"fmt"
	"strings"

	"autotune/internal/optimizer"
	"autotune/internal/sched"
	"autotune/internal/space"
)

// ErrReadOnly marks a Suggest or Observe on a study whose optimizer is
// gone: it was built without one (a history nobody can re-seed) or it
// failed and was retired. The history stays readable.
var ErrReadOnly = errors.New("trial: study is read-only")

// Study is the ask/tell core: one optimizer, the sink that makes its
// observations durable, and everything derived from the observed history —
// the acked-ID set, the records, the next ID to hand out, the incumbent.
// The library loop (Run) and the tuning daemon (internal/server) both
// drive this type; neither keeps a copy of that state.
//
// The write-ahead order lives here and nowhere else: Observe appends the
// batch to the sink, and only once that has returned feeds the optimizer
// and records the trials; the caller acks after Observe returns. Replay
// rebuilds the same state from a durable history without touching the sink.
// Optimizer calls run under sched.Guard: a strategy that panics or fails on
// an observation is retired and the study turns read-only, with everything
// the sink accepted still acked.
//
// A Study is not safe for concurrent use; callers serialize (the daemon
// with its per-study lock, the library loop by being one goroutine).
type Study struct {
	opt      optimizer.Optimizer // nil once retired
	degraded string              // why opt is nil
	sink     JournalSink         // nil: observations are not journaled

	acked   map[int]struct{}
	records []TrialRecord // replayed history in the order given, then observe order
	nextID  int           // one past the largest ID handed out or observed
	best    int           // index in records of the incumbent; -1 before the first non-crashed trial
}

// NewStudy returns an empty study around opt. A nil opt gives a read-only
// study that can only Replay; a nil sink one whose observations are not
// journaled. The caller keeps ownership of the sink's lifecycle.
func NewStudy(opt optimizer.Optimizer, sink JournalSink) *Study {
	s := &Study{opt: opt, sink: sink, acked: make(map[int]struct{}), best: -1}
	if opt == nil {
		s.degraded = "no optimizer"
	}
	return s
}

// Retire drops the optimizer and leaves the study read-only; why is what
// Suggest and Observe report from then on.
func (s *Study) Retire(why string) {
	s.opt = nil
	s.degraded = why
}

// Degraded is the reason the study is read-only, "" while it is live.
func (s *Study) Degraded() string { return s.degraded }

func (s *Study) writable() error {
	if s.opt == nil {
		return fmt.Errorf("%w: %s", ErrReadOnly, s.degraded)
	}
	return nil
}

// Suggest proposes up to n configurations and reserves the IDs first,
// first+1, … for them. IDs become durable only when observed; a study
// rebuilt by Replay hands unobserved ones out again. exhausted reports
// that a finite strategy ran dry, possibly after a short final batch.
func (s *Study) Suggest(n int) (first int, cfgs []space.Config, exhausted bool, err error) {
	if err := s.writable(); err != nil {
		return 0, nil, false, err
	}
	var serr error
	gerr := sched.Guard(func() error {
		if bs, ok := s.opt.(optimizer.BatchSuggester); ok && n > 1 {
			cfgs, serr = bs.SuggestN(n)
			return nil
		}
		for len(cfgs) < n {
			var cfg space.Config
			if cfg, serr = s.opt.Suggest(); serr != nil {
				return nil
			}
			cfgs = append(cfgs, cfg)
		}
		return nil
	})
	if gerr != nil {
		s.Retire("suggest: " + firstLine(gerr))
		return 0, nil, false, gerr
	}
	exhausted = errors.Is(serr, optimizer.ErrExhausted)
	if serr != nil && !exhausted {
		return 0, nil, false, serr
	}
	first = s.nextID
	s.nextID += len(cfgs)
	return first, cfgs, exhausted, nil
}

// Acked reports whether trial id has been observed (or replayed).
func (s *Study) Acked(id int) bool {
	_, ok := s.acked[id]
	return ok
}

// Observe applies a batch exactly once. Records whose ID is already acked
// — by an earlier call or earlier in this batch — are dropped and counted
// in dups, which is what makes a retried tell safe. The rest go to the
// sink in one Append; if that fails its error is returned bare and the
// study is as it was before the call. After it, each record is fed to the
// optimizer and recorded. An optimizer failure there retires the study but
// the batch stays acked: it is durable, and a Replay would meet the same
// failure. The study keeps batch; the caller must not reuse it.
func (s *Study) Observe(batch []TrialRecord) (acked, dups int, err error) {
	if err := s.writable(); err != nil {
		return 0, 0, err
	}
	return s.apply(batch, s.sink)
}

// Replay rebuilds the study from a durable history: the same state Observe
// would have left, with no sink writes. On a read-only study it only
// records. The study keeps history; the caller must not reuse it.
func (s *Study) Replay(history []TrialRecord) error {
	_, _, err := s.apply(history, nil)
	return err
}

// apply is the write-ahead order, stated once: drop what is already acked,
// make the rest durable in sink (nil on replay: it already is), feed it to
// the optimizer, record it. batch is compacted in place.
func (s *Study) apply(batch []TrialRecord, sink JournalSink) (acked, dups int, err error) {
	fresh := batch[:0]
	for i := range batch {
		if s.Acked(batch[i].ID) {
			dups++
			continue
		}
		s.acked[batch[i].ID] = struct{}{}
		fresh = append(fresh, batch[i])
	}
	if len(fresh) == 0 {
		return 0, dups, nil
	}
	if sink != nil {
		if err := sink.Append(fresh); err != nil {
			for i := range fresh {
				delete(s.acked, fresh[i].ID)
			}
			return 0, dups, err
		}
	}
	if s.opt != nil {
		i := 0
		err = sched.Guard(func() error {
			for ; i < len(fresh); i++ {
				if err := s.opt.Observe(fresh[i].Config, fresh[i].Value); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			err = fmt.Errorf("trial %d observe: %w", fresh[i].ID, err)
			s.Retire(firstLine(err))
		}
	}
	// Recorded whatever the optimizer made of it: the batch is durable.
	base := len(s.records)
	if base == 0 {
		s.records = fresh
	} else {
		s.records = append(s.records, fresh...)
	}
	for i := range fresh {
		r := &fresh[i]
		if r.ID >= s.nextID {
			s.nextID = r.ID + 1
		}
		if !r.Crashed && (s.best < 0 || r.Value < s.records[s.best].Value) {
			s.best = base + i
		}
	}
	return len(fresh), dups, err
}

// Records is the observed history: what Replay was given, in that order,
// then observations in the order they were acked. The slice is live;
// callers must not modify it.
func (s *Study) Records() []TrialRecord { return s.records }

// NextID is the ID the next suggestion will carry: one past the largest
// handed out or observed. A drained batch may leave gaps below it; those
// IDs are never reused for a different configuration.
func (s *Study) NextID() int { return s.nextID }

// Best returns the incumbent: the first-recorded lowest-valued trial that
// did not crash. ok is false before any such trial.
func (s *Study) Best() (rec TrialRecord, ok bool) {
	if s.best < 0 {
		return TrialRecord{}, false
	}
	return s.records[s.best], true
}

// firstLine trims a guard error (panic value plus stack) to its first line.
func firstLine(err error) string {
	line, _, _ := strings.Cut(err.Error(), "\n")
	return line
}
