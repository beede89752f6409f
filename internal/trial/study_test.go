package trial

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"autotune/internal/bo"
	"autotune/internal/optimizer"
	"autotune/internal/sched"
	"autotune/internal/smac"
	"autotune/internal/space"
)

// faultyOpt is a strategy that panics on its n-th Suggest or Observe
// (1-based; 0 never). Embedding the interface keeps SuggestN out of its
// method set, so batches reach Suggest one at a time.
type faultyOpt struct {
	optimizer.Optimizer
	suggestPanicAt, observePanicAt int
	suggests, observes             int
}

func (o *faultyOpt) Suggest() (space.Config, error) {
	if o.suggests++; o.suggests == o.suggestPanicAt {
		panic("suggest boom")
	}
	return o.Optimizer.Suggest()
}

func (o *faultyOpt) Observe(cfg space.Config, v float64) error {
	if o.observes++; o.observes == o.observePanicAt {
		panic("observe boom")
	}
	return o.Optimizer.Observe(cfg, v)
}

var errSinkDown = errors.New("sink down")

// flakySink journals in memory and fails every Append while down.
type flakySink struct {
	collectSink
	appends int
	down    bool
}

func (k *flakySink) Append(batch []TrialRecord) error {
	if k.down {
		return errSinkDown
	}
	k.appends++
	return k.collectSink.Append(batch)
}

func ids(recs []TrialRecord) []int {
	out := make([]int, len(recs))
	for i, r := range recs {
		out[i] = r.ID
	}
	return out
}

// TestStudyObserve drives the core's exactly-once contract: each step is
// one Observe call, and a step that acks nothing must leave the study as it
// found it.
func TestStudyObserve(t *testing.T) {
	sp := space.MustNew(space.Float("x", 0, 1))
	type step struct {
		ids         []int // trial i is told with value (i-1)², so trial 1 is the best there can be
		sinkDown    bool
		acked, dups int
		err         error // errors.Is target
	}
	cases := []struct {
		name           string
		observePanicAt int
		steps          []step
		records        []int // IDs recorded, in order
		appends        int   // sink Append calls that succeeded
		fed            int   // Observe calls the optimizer received
		nextID, best   int
		readOnly       bool
	}{
		{
			name: "duplicates across calls",
			steps: []step{
				{ids: []int{0, 2}, acked: 2},
				{ids: []int{2, 3}, acked: 1, dups: 1},
				{ids: []int{0, 2, 3}, dups: 3},
			},
			records: []int{0, 2, 3}, appends: 2, fed: 3, nextID: 4, best: 0,
		},
		{
			name: "duplicates within one batch",
			steps: []step{
				{ids: []int{5, 1, 5, 1, 1}, acked: 2, dups: 3},
			},
			records: []int{5, 1}, appends: 1, fed: 2, nextID: 6, best: 1,
		},
		{
			name: "sink failure moves nothing and the retry is fresh",
			steps: []step{
				{ids: []int{0}, acked: 1},
				{ids: []int{0, 1, 2}, sinkDown: true, dups: 1, err: errSinkDown},
				{ids: []int{1, 2}, acked: 2},
			},
			records: []int{0, 1, 2}, appends: 2, fed: 3, nextID: 3, best: 1,
		},
		{
			name:           "panic in observe keeps the batch acked and retires the study",
			observePanicAt: 2,
			steps: []step{
				{ids: []int{3, 1, 2}, acked: 3, err: sched.ErrPanic},
				{ids: []int{1}, err: ErrReadOnly},
				{ids: []int{4}, err: ErrReadOnly},
			},
			records: []int{3, 1, 2}, appends: 1, fed: 2, nextID: 4, best: 1, readOnly: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := &faultyOpt{Optimizer: optimizer.NewRandom(sp, rand.New(rand.NewSource(1))), observePanicAt: tc.observePanicAt}
			sink := &flakySink{}
			s := NewStudy(opt, sink)
			for i, st := range tc.steps {
				batch := make([]TrialRecord, len(st.ids))
				for j, id := range st.ids {
					batch[j] = TrialRecord{ID: id, Config: space.Config{"x": 0.5}, Value: float64((id - 1) * (id - 1))}
				}
				before, beforeNext := ids(s.Records()), s.NextID()
				beforeBest, beforeOK := s.Best()
				sink.down = st.sinkDown
				acked, dups, err := s.Observe(batch)
				if acked != st.acked || dups != st.dups || !errors.Is(err, st.err) {
					t.Fatalf("step %d: Observe = (%d, %d, %v), want (%d, %d, %v)", i, acked, dups, err, st.acked, st.dups, st.err)
				}
				if acked > 0 {
					continue
				}
				best, ok := s.Best()
				if !reflect.DeepEqual(ids(s.Records()), before) || s.NextID() != beforeNext || ok != beforeOK || best.ID != beforeBest.ID {
					t.Fatalf("step %d acked nothing but moved the study: records %v → %v, next %d → %d, best %d → %d",
						i, before, ids(s.Records()), beforeNext, s.NextID(), beforeBest.ID, best.ID)
				}
				for _, id := range st.ids {
					if s.Acked(id) != slices.Contains(before, id) {
						t.Fatalf("step %d acked nothing but Acked(%d) = %v", i, id, s.Acked(id))
					}
				}
			}
			if got := ids(s.Records()); !reflect.DeepEqual(got, tc.records) {
				t.Fatalf("records %v, want %v", got, tc.records)
			}
			if got := ids(sink.recs); !reflect.DeepEqual(got, tc.records) {
				t.Fatalf("journaled %v, want exactly the records %v", got, tc.records)
			}
			if sink.appends != tc.appends {
				t.Fatalf("%d sink appends, want %d (one per Observe that acked)", sink.appends, tc.appends)
			}
			if opt.observes != tc.fed {
				t.Fatalf("optimizer fed %d observations, want %d", opt.observes, tc.fed)
			}
			if best, ok := s.Best(); !ok || best.ID != tc.best || s.NextID() != tc.nextID {
				t.Fatalf("best %d (found %v) next %d, want best %d next %d", best.ID, ok, s.NextID(), tc.best, tc.nextID)
			}
			if (s.Degraded() != "") != tc.readOnly {
				t.Fatalf("Degraded() = %q, want read-only %v", s.Degraded(), tc.readOnly)
			}
			if _, _, _, err := s.Suggest(1); errors.Is(err, ErrReadOnly) != tc.readOnly {
				t.Fatalf("Suggest on a study with read-only=%v: %v", tc.readOnly, err)
			}
		})
	}
}

// sameBits compares configs bit for bit (floats by their IEEE bits).
func sameBits(a, b space.Config) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		af, aIsF := av.(float64)
		bf, bIsF := bv.(float64)
		switch {
		case !ok, aIsF != bIsF:
			return false
		case aIsF && math.Float64bits(af) != math.Float64bits(bf):
			return false
		case !aIsF && av != bv:
			return false
		}
	}
	return true
}

// TestStudyRebuildAtEveryStep is the eviction drill: a study that is thrown
// away and rebuilt from its durable history before every suggest. At every
// step k the rebuild is done twice — Replay of the first k records in one
// call, and k single-record Observes through a sink, the way a live study
// met them — and both must hold the same records, next ID and incumbent and
// suggest the same configuration bit for bit; the whole drill run twice must
// produce the same history. What it does not compare against is a study that
// was never rebuilt: Suggest advances a strategy's random stream and the
// history does not say how many suggests were asked, so a rebuilt study is a
// function of (seed, history) while a live one also remembers its asks.
func TestStudyRebuildAtEveryStep(t *testing.T) {
	sp := space.MustNew(
		space.Float("x", 0, 1),
		space.Int("n", 1, 64),
		space.Categorical("c", "a", "b", "c"),
	)
	objective := func(c space.Config) float64 {
		x := c.Float("x")
		return (x-0.3)*(x-0.3) + float64(c.Int("n"))/100
	}
	strategies := map[string]func() optimizer.Optimizer{
		"random": func() optimizer.Optimizer { return optimizer.NewRandom(sp, rand.New(rand.NewSource(3))) },
		"smac":   func() optimizer.Optimizer { return smac.New(sp, rand.New(rand.NewSource(3))) },
		"bo":     func() optimizer.Optimizer { return bo.New(sp, rand.New(rand.NewSource(3))) }, // n ≤ 24: dense tier
	}
	const steps = 24
	for name, newOpt := range strategies {
		t.Run(name, func(t *testing.T) {
			drill := func() []TrialRecord {
				var history []TrialRecord
				for k := 0; k < steps; k++ {
					replayed := NewStudy(newOpt(), nil)
					if err := replayed.Replay(append([]TrialRecord(nil), history...)); err != nil {
						t.Fatal(err)
					}
					told := NewStudy(newOpt(), &collectSink{})
					for _, rec := range history {
						if acked, _, err := told.Observe([]TrialRecord{rec}); acked != 1 || err != nil {
							t.Fatalf("step %d: tell %d: acked %d, %v", k, rec.ID, acked, err)
						}
					}
					if !reflect.DeepEqual(replayed.Records(), told.Records()) || replayed.NextID() != told.NextID() {
						t.Fatalf("step %d: replayed and told studies hold different histories", k)
					}
					rb, rok := replayed.Best()
					tb, tok := told.Best()
					if rok != tok || rb.ID != tb.ID {
						t.Fatalf("step %d: incumbents differ: %d (%v) vs %d (%v)", k, rb.ID, rok, tb.ID, tok)
					}
					rid, rcfg, _, err := replayed.Suggest(1)
					if err != nil {
						t.Fatal(err)
					}
					tid, tcfg, _, err := told.Suggest(1)
					if err != nil {
						t.Fatal(err)
					}
					if rid != k || tid != k || !sameBits(rcfg[0], tcfg[0]) {
						t.Fatalf("step %d: replayed study suggests %d %v, told study %d %v", k, rid, rcfg[0], tid, tcfg[0])
					}
					history = append(history, TrialRecord{ID: rid, Config: rcfg[0], Value: objective(rcfg[0])})
				}
				return history
			}
			first, second := drill(), drill()
			for k := range first {
				if first[k].ID != second[k].ID || !sameBits(first[k].Config, second[k].Config) {
					t.Fatalf("two drills diverge at step %d: %v vs %v", k, first[k].Config, second[k].Config)
				}
			}
		})
	}
}

// TestRunOptimizerPanicIsAnErrorAndResumable: a strategy that panics under
// Run comes back as an error wrapping ErrPanic instead of unwinding the
// caller, everything absorbed by then is in the store, and a resumed run
// finishes the budget from it without re-running a trial — on the barrier path and
// on the scheduler path.
func TestRunOptimizerPanicIsAnErrorAndResumable(t *testing.T) {
	for _, path := range []string{"barrier", "sched"} {
		for _, where := range []string{"suggest", "observe"} {
			t.Run(path+"/"+where, func(t *testing.T) {
				store := t.TempDir()
				opts := Options{Budget: 12, Parallel: 2}
				if path == "sched" {
					opts.Scheduler = &sched.Options{}
				}
				env := newCountingEnv()
				bomb := &faultyOpt{Optimizer: optimizer.NewRandom(env.sp, rand.New(rand.NewSource(4)))}
				if where == "suggest" {
					bomb.suggestPanicAt = 6 // first ask of the third batch
				} else {
					bomb.observePanicAt = 5
				}
				rep, err := runJournaled(context.Background(), store, "", bomb, env, opts)
				if !errors.Is(err, ErrPanic) {
					t.Fatalf("Run = %v, want an error wrapping ErrPanic", err)
				}
				if len(rep.Trials) == 0 || len(rep.Trials) >= opts.Budget {
					t.Fatalf("report holds %d trials, want a partial run", len(rep.Trials))
				}
				durable, err := readJournal(store, "", env.sp)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ids(durable), sortedIDs(rep.Trials)) {
					t.Fatalf("store holds trials %v, report absorbed %v", ids(durable), sortedIDs(rep.Trials))
				}

				ranBefore := env.runs.Load()
				healthy := optimizer.NewRandom(env.sp, rand.New(rand.NewSource(5)))
				rep2, err := runJournaled(context.Background(), store, "", healthy, env, opts)
				if err != nil {
					t.Fatal(err)
				}
				if rep2.Resumed != len(durable) || len(rep2.Trials) != opts.Budget {
					t.Fatalf("resumed %d of %d durable trials, finished with %d of %d", rep2.Resumed, len(durable), len(rep2.Trials), opts.Budget)
				}
				if got, want := env.runs.Load()-ranBefore, int64(opts.Budget-len(durable)); got != want {
					t.Fatalf("resume ran the environment %d times, want %d", got, want)
				}
			})
		}
	}
}

func sortedIDs(recs []TrialRecord) []int {
	out := ids(recs)
	slices.Sort(out)
	return out
}

// BenchmarkReplayHeap replays a restart-shaped preload — 512 random
// studies of 128 records on the benchmark's four-knob service space — into
// fresh studies, the way a booting daemon does, and reports the live heap
// of the records themselves and what replaying them added on top:
//
//	go test ./internal/trial -run '^$' -bench ReplayHeap -benchtime 3x
func BenchmarkReplayHeap(b *testing.B) {
	sp := space.MustNew(
		space.Int("cache_mb", 64, 8192).WithLog(),
		space.Float("flush_interval", 0.01, 30).WithLog(),
		space.Categorical("policy", "lru", "fifo", "arc", "clock"),
		space.Bool("direct_io"),
	)
	heapMiB := func() float64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / (1 << 20)
	}
	for range b.N {
		b.StopTimer()
		base := heapMiB()
		rng := rand.New(rand.NewSource(1))
		histories := make([][]TrialRecord, 512)
		for i := range histories {
			histories[i] = make([]TrialRecord, 128)
			for j := range histories[i] {
				histories[i][j] = TrialRecord{ID: j, Config: sp.Sample(rng), Value: rng.Float64()}
			}
		}
		loaded := heapMiB()
		b.StartTimer()
		studies := make([]*Study, len(histories))
		for i, h := range histories {
			studies[i] = NewStudy(optimizer.NewRandom(sp, rand.New(rand.NewSource(int64(i)))), nil)
			if err := studies[i].Replay(h); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(loaded-base, "records-MiB")
		b.ReportMetric(heapMiB()-loaded, "replay-MiB")
		runtime.KeepAlive(studies)
	}
}

// seqEnv scores the i-th trial it runs values[i] and crashes trial crash.
type seqEnv struct {
	sp     *space.Space
	values []float64
	crash  int
	n      int
}

func (e *seqEnv) Space() *space.Space { return e.sp }

func (e *seqEnv) Run(context.Context, space.Config, float64) (Result, error) {
	i := e.n
	e.n++
	if i == e.crash {
		return Result{}, ErrCrash
	}
	return Result{Value: e.values[i]}, nil
}

// TestIncumbentRule pins the one incumbent rule of the repo: the first
// trial is the incumbent and only a strictly lower value replaces it, so a
// tie keeps the earlier trial, a NaN first value sticks (nothing compares
// below it) and -Inf holds; a crashed trial never counts, whatever value it
// carries. A replayed study, a study told trial by trial and Run's Report
// must all pick the same trial, or the figure tables move.
func TestIncumbentRule(t *testing.T) {
	nan, negInf := math.NaN(), math.Inf(-1)
	cases := []struct {
		name    string
		values  []float64
		crashed int // index of the crashed trial; -1 for none
		best    int
	}{
		{"a tie keeps the first", []float64{3, 1, 2, 1}, -1, 1},
		{"a NaN first value sticks", []float64{nan, 1, 0.5}, -1, 0},
		{"-Inf wins and holds", []float64{2, negInf, negInf, -5}, -1, 1},
		{"a crashed lower value is skipped", []float64{2, 0.5, 1}, 1, 2},
	}
	sp := space.MustNew(space.Float("x", 0, 1))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs := make([]TrialRecord, len(tc.values))
			for i, v := range tc.values {
				recs[i] = TrialRecord{ID: i, Config: space.Config{"x": float64(i)}, Value: v, Crashed: i == tc.crashed}
			}
			replayed := NewStudy(nil, nil)
			if err := replayed.Replay(slices.Clone(recs)); err != nil {
				t.Fatal(err)
			}
			told := NewStudy(optimizer.NewRandom(sp, rand.New(rand.NewSource(1))), nil)
			for _, rec := range recs {
				if _, _, err := told.Observe([]TrialRecord{rec}); err != nil {
					t.Fatal(err)
				}
			}
			for name, s := range map[string]*Study{"replayed": replayed, "told": told} {
				if best, ok := s.Best(); !ok || best.ID != tc.best {
					t.Fatalf("%s study: incumbent %d (found %v), want %d", name, best.ID, ok, tc.best)
				}
			}
			env := &seqEnv{sp: sp, values: tc.values, crash: tc.crashed}
			rep, err := Run(NewStudy(optimizer.NewGridLevels(sp, len(tc.values)), nil), env, Options{Budget: len(tc.values)})
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(rep.BestValue) != math.Float64bits(tc.values[tc.best]) || !sameBits(rep.BestConfig, rep.Trials[tc.best].Config) {
				t.Fatalf("report incumbent %v %v, want trial %d: %v %v",
					rep.BestValue, rep.BestConfig, tc.best, tc.values[tc.best], rep.Trials[tc.best].Config)
			}
		})
	}
}
