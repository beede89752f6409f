package trial

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"autotune/internal/optimizer"
	"autotune/internal/space"
	"autotune/internal/studystore"
)

func TestRunWithStoreThenResume(t *testing.T) {
	env := newCountingEnv()
	dir := filepath.Join(t.TempDir(), "studies")
	opts := Options{Budget: 8}
	o1 := optimizer.NewRandom(env.sp, rand.New(rand.NewSource(1)))
	rep, err := runJournaled(context.Background(), dir, "exp", o1, env, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trials) != 8 || env.runs.Load() != 8 {
		t.Fatalf("first run: %d trials, %d env runs", len(rep.Trials), env.runs.Load())
	}

	// Resume with a doubled budget: the 8 stored trials replay without
	// touching the environment, then 8 more run.
	opts.Budget = 16
	o2 := &toldOpt{Optimizer: optimizer.NewRandom(env.sp, rand.New(rand.NewSource(9)))}
	rep2, err := runJournaled(context.Background(), dir, "exp", o2, env, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Resumed != 8 {
		t.Fatalf("resumed = %d, want 8", rep2.Resumed)
	}
	if len(rep2.Trials) != 16 || env.runs.Load() != 16 {
		t.Fatalf("after resume: %d trials, %d env runs, want 16 and 16", len(rep2.Trials), env.runs.Load())
	}
	if len(o2.values) != 16 {
		t.Fatalf("optimizer observed %d, want 16", len(o2.values))
	}
}

func TestRunStoreKillMidRunResumesExactly(t *testing.T) {
	env := newCountingEnv()
	dir := filepath.Join(t.TempDir(), "studies")
	opts := Options{Budget: 30, Parallel: 3}
	ctx, cancel := context.WithCancel(context.Background())
	env.onRun = func(n int64) error {
		if n >= 12 {
			cancel()
		}
		return nil
	}
	o1 := optimizer.NewRandom(env.sp, rand.New(rand.NewSource(2)))
	if _, err := runJournaled(ctx, dir, "kill", o1, env, opts); err == nil {
		t.Fatal("cancelled run should report the context error")
	}
	recorded, err := readJournal(dir, "kill", env.sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(recorded) == 0 || len(recorded) >= 30 {
		t.Fatalf("store recorded %d trials mid-kill, want a strict partial", len(recorded))
	}
	ranBefore := env.runs.Load()

	env.onRun = nil
	o2 := optimizer.NewRandom(env.sp, rand.New(rand.NewSource(3)))
	rep, err := runJournaled(context.Background(), dir, "kill", o2, env, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != len(recorded) {
		t.Fatalf("resumed %d, want the %d stored trials", rep.Resumed, len(recorded))
	}
	if len(rep.Trials) != 30 {
		t.Fatalf("final trials = %d, want 30", len(rep.Trials))
	}
	if got, want := env.runs.Load()-ranBefore, int64(30-len(recorded)); got != want {
		t.Fatalf("resume ran the environment %d times, want exactly %d (no re-runs)", got, want)
	}
}

// TestReadStudyJournalUndecodablePayloadErrors: a payload that passed the
// store's CRC check yet does not parse, or parses to a config the space
// cannot type, is real corruption, not a torn write, and must surface as
// ErrJournalCorrupt rather than be skipped.
func TestReadStudyJournalUndecodablePayloadErrors(t *testing.T) {
	sp := space.MustNew(space.Float("x", 0, 1))
	for name, payload := range map[string]string{
		"undecodable":    `{"id":1,"value":0.`,
		"unknown knob":   `{"id":1,"config":{"y":0.5},"value":1}`,
		"mistyped value": `{"id":1,"config":{"x":"high"},"value":1}`,
	} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "studies")
			sj, err := OpenStudyJournal(dir, "a")
			if err != nil {
				t.Fatal(err)
			}
			if err := sj.Append([]TrialRecord{{ID: 0, Config: space.Config{"x": 0.1}, Value: 1}}); err != nil {
				t.Fatal(err)
			}
			bad := studystore.Record{Study: "a", ID: 1, Payload: []byte(payload)}
			if err := sj.Store().Append(bad); err != nil {
				t.Fatal(err)
			}
			if err := sj.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := readJournal(dir, "a", sp); !errors.Is(err, ErrJournalCorrupt) {
				t.Fatalf("corrupt payload read = %v, want ErrJournalCorrupt", err)
			}
		})
	}
}

// collectSink records appends in memory — a custom JournalSink.
type collectSink struct{ recs []TrialRecord }

func (c *collectSink) Append(batch []TrialRecord) error {
	c.recs = append(c.recs, batch...)
	return nil
}

// runJournaled is the resume recipe: open the study store at dir once,
// replay the named study's records into a fresh Study around o, and run
// that study to the budget. On an empty store it is a fresh journaled run.
func runJournaled(ctx context.Context, dir, study string, o optimizer.Optimizer, env Environment, opts Options) (rep Report, err error) {
	sj, err := OpenStudyJournal(dir, study)
	if err != nil {
		return Report{}, err
	}
	defer func() {
		if cerr := sj.Close(); err == nil {
			err = cerr
		}
	}()
	history, err := sj.Records(env.Space())
	if err != nil {
		return Report{}, err
	}
	s := NewStudy(o, sj)
	if err := s.Replay(history); err != nil {
		return Report{}, err
	}
	return RunContext(ctx, s, env, opts)
}

// readJournal loads the named study's records from the store at dir.
func readJournal(dir, study string, sp *space.Space) ([]TrialRecord, error) {
	sj, err := OpenStudyJournal(dir, study)
	if err != nil {
		return nil, err
	}
	recs, err := sj.Records(sp)
	if cerr := sj.Close(); err == nil {
		err = cerr
	}
	return recs, err
}

// TestSaveCrashWindowsReaderNeverTorn walks every crash window of the
// atomic-rename Save protocol and asserts a reader sees either a complete
// old report, a complete new report, or a clean not-exist error — never a
// torn file.
func TestSaveCrashWindowsReaderNeverTorn(t *testing.T) {
	old := Report{BestValue: 1, Trials: []TrialRecord{{ID: 0, Value: 1}}}
	next := Report{BestValue: 0.5, Trials: []TrialRecord{{ID: 0, Value: 1}, {ID: 1, Value: 0.5}}}
	nextJSON, err := json.MarshalIndent(next, "", "  ")
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		setup      func(t *testing.T, dir, path string)
		wantTrials int // -1 means the read must fail with not-exist
	}{
		{
			name:       "kill before temp write",
			setup:      func(t *testing.T, dir, path string) { mustSave(t, old, path) },
			wantTrials: 1,
		},
		{
			name: "kill mid temp write: torn temp beside old report",
			setup: func(t *testing.T, dir, path string) {
				mustSave(t, old, path)
				writeRaw(t, filepath.Join(dir, ".report-123.tmp"), nextJSON[:len(nextJSON)/2])
			},
			wantTrials: 1,
		},
		{
			name: "kill after temp fsync, before rename",
			setup: func(t *testing.T, dir, path string) {
				mustSave(t, old, path)
				writeRaw(t, filepath.Join(dir, ".report-456.tmp"), nextJSON)
			},
			wantTrials: 1,
		},
		{
			name: "kill after rename, before dir fsync",
			setup: func(t *testing.T, dir, path string) {
				mustSave(t, old, path)
				mustSave(t, next, path)
			},
			wantTrials: 2,
		},
		{
			name: "first save killed mid write: torn temp, no report",
			setup: func(t *testing.T, dir, path string) {
				writeRaw(t, filepath.Join(dir, ".report-789.tmp"), nextJSON[:3])
			},
			wantTrials: -1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "report.json")
			tc.setup(t, dir, path)
			data, err := os.ReadFile(path)
			if tc.wantTrials < 0 {
				if !errors.Is(err, os.ErrNotExist) {
					t.Fatalf("read = %v, want a clean not-exist error (never a torn parse)", err)
				}
				return
			}
			var rep Report
			if err == nil {
				err = json.Unmarshal(data, &rep)
			}
			if err != nil {
				t.Fatalf("report unreadable in a recoverable crash state: %v", err)
			}
			if len(rep.Trials) != tc.wantTrials {
				t.Fatalf("loaded %d trials, want %d (a complete old or new report)", len(rep.Trials), tc.wantTrials)
			}
		})
	}
}

// readReport reads a report written by Save.
func readReport(t *testing.T, path string) Report {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	return r
}

func mustSave(t *testing.T, r Report, path string) {
	t.Helper()
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
}

func writeRaw(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
