package experiments

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"autotune/internal/studystore"
)

// observe.go is the store-saturation harness behind cmd/bench
// -observebench: durable append throughput with and without group commit,
// at matched durability (every ack strictly after the fsync covering it),
// concurrent writers calling AppendBatch directly on the same disk. The
// per-caller-fsync baseline hard-serializes at ~1/fsync, so the ratio is
// the honest measure of fsync amortization, and a ratio travels between
// machines where an absolute rate does not. The baseline arm is the
// identical binary with studystore.Options.DisableGroupCommit set: the
// same commit path forced to groups of one. How much of the store-level
// win survives HTTP, JSON and session locking is the repo benchmark's
// observe-durable workload (benchmark/), not this file's business.

// StoreSaturationResult is the store-level comparison: the same
// concurrent append load against the per-caller-fsync baseline and the
// group-commit path.
type StoreSaturationResult struct {
	Writers         int     `json:"writers"`
	Seconds         float64 `json:"seconds"`
	BaselineRecords int64   `json:"baseline_records"`
	BaselinePerSec  float64 `json:"baseline_per_sec"`
	BaselineFsyncs  int     `json:"baseline_fsyncs"`
	GroupRecords    int64   `json:"group_records"`
	GroupPerSec     float64 `json:"group_per_sec"`
	GroupFsyncs     int     `json:"group_fsyncs"`
	GroupMean       float64 `json:"group_mean"`
	GroupMax        int     `json:"group_max"`
	Ratio           float64 `json:"ratio"`
}

// storeSaturation floods one store with single-record appends from
// `writers` goroutines for `measure`, with group commit on or off, and
// returns the durable record rate plus the fsync counters.
func storeSaturation(writers int, measure time.Duration, group bool) (records int64, seconds float64, stats studystore.Stats, err error) {
	dir, err := os.MkdirTemp("", "observe-bench")
	if err != nil {
		return 0, 0, stats, err
	}
	defer os.RemoveAll(dir)
	st, err := studystore.Open(dir, studystore.Options{DisableGroupCommit: !group})
	if err != nil {
		return 0, 0, stats, err
	}
	defer st.Close()

	var (
		wg       sync.WaitGroup
		total    atomic.Int64
		errMu    sync.Mutex
		firstErr error
		deadline = time.Now().Add(measure)
		start    = time.Now()
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					fail(fmt.Errorf("writer %d panicked: %v", w, r))
				}
				wg.Done()
			}()
			payload := []byte(fmt.Sprintf(`{"writer":%d}`, w))
			study := fmt.Sprintf("w%03d", w)
			for id := int64(0); time.Now().Before(deadline); id++ {
				rec := studystore.Record{Study: study, ID: id, Payload: payload}
				if err := st.AppendBatch([]studystore.Record{rec}); err != nil {
					fail(err)
					return
				}
				total.Add(1)
			}
		}()
	}
	wg.Wait()
	seconds = time.Since(start).Seconds()
	if firstErr != nil {
		return 0, 0, stats, firstErr
	}
	return total.Load(), seconds, st.Stats(), nil
}

// StoreSaturation runs the baseline and group arms back to back on the
// same filesystem and returns the comparison.
func StoreSaturation(writers int, measure time.Duration) (StoreSaturationResult, error) {
	baseRecs, baseSecs, baseStats, err := storeSaturation(writers, measure, false)
	if err != nil {
		return StoreSaturationResult{}, fmt.Errorf("baseline: %w", err)
	}
	grpRecs, grpSecs, grpStats, err := storeSaturation(writers, measure, true)
	if err != nil {
		return StoreSaturationResult{}, fmt.Errorf("group: %w", err)
	}
	res := StoreSaturationResult{
		Writers:         writers,
		Seconds:         measure.Seconds(),
		BaselineRecords: baseRecs,
		BaselinePerSec:  float64(baseRecs) / baseSecs,
		BaselineFsyncs:  baseStats.Fsyncs,
		GroupRecords:    grpRecs,
		GroupPerSec:     float64(grpRecs) / grpSecs,
		GroupFsyncs:     grpStats.Fsyncs,
		GroupMean:       grpStats.MeanGroup(),
		GroupMax:        grpStats.MaxGroup,
	}
	if res.BaselinePerSec > 0 {
		res.Ratio = res.GroupPerSec / res.BaselinePerSec
	}
	return res, nil
}
