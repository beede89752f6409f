package server

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"autotune/internal/core"
	"autotune/internal/space"
	"autotune/internal/trial"
)

// streamObjective is the deterministic benchmark both surfaces evaluate.
func streamObjective(cfg space.Config) float64 {
	v := math.Pow(math.Log(cfg.Float("timeout"))-0.5, 2) + math.Pow(float64(cfg.Int("cache_mb")-1000)/1000, 2)
	if cfg.Str("policy") != "arc" {
		v += 0.3
	}
	if cfg.Bool("compress") {
		v += 0.1
	}
	return v
}

// daemonSteps runs suggest 1 → evaluate → observe 1 on the daemon until
// the study holds upto trials.
func daemonSteps(t *testing.T, c *Client, study string, sp *space.Space, upto int) {
	t.Helper()
	ctx := context.Background()
	for {
		trs, err := c.Trials(ctx, study)
		if err != nil {
			t.Fatal(err)
		}
		if len(trs) >= upto {
			return
		}
		sugg, err := c.Suggest(ctx, study, 1)
		if err != nil || len(sugg) != 1 {
			t.Fatalf("%s suggest: %v (%d trials)", study, err, len(sugg))
		}
		cfg, err := sp.Normalize(sugg[0].Config)
		if err != nil {
			t.Fatalf("%s suggested an untypable config: %v", study, err)
		}
		obs := Observation{Trial: sugg[0].Trial, Config: sugg[0].Config, Value: streamObjective(cfg), CostSeconds: 1}
		if _, err := c.Observe(ctx, study, obs); err != nil {
			t.Fatalf("%s observe: %v", study, err)
		}
	}
}

// libraryRun runs the same loop through trial.Run, journaling into dir
// when it is non-empty and replaying what the journal already holds first.
func libraryRun(t *testing.T, name string, seed int64, sp *space.Space, dir string, budget int) trial.Report {
	t.Helper()
	opt, err := core.NewOptimizer(name, sp, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	env := &trial.FuncEnv{Sp: sp, F: streamObjective}
	s := trial.NewStudy(opt, nil)
	if dir != "" {
		sj, err := trial.OpenStudyJournal(dir, name)
		if err != nil {
			t.Fatal(err)
		}
		defer sj.Close()
		history, err := sj.Records(sp)
		if err != nil {
			t.Fatal(err)
		}
		s = trial.NewStudy(opt, sj)
		if err := s.Replay(history); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := trial.Run(s, env, trial.Options{Budget: budget})
	if err != nil {
		t.Fatalf("%s library run: %v", name, err)
	}
	return rep
}

// sameHistory compares two recorded histories value by value: IDs,
// values and every config entry with the same Go type and the same bits.
func sameHistory(lib, daemon []trial.TrialRecord) error {
	if len(lib) != len(daemon) {
		return fmt.Errorf("library holds %d trials, daemon %d", len(lib), len(daemon))
	}
	for i := range lib {
		a, b := lib[i], daemon[i]
		if a.ID != b.ID || math.Float64bits(a.Value) != math.Float64bits(b.Value) || a.Crashed != b.Crashed {
			return fmt.Errorf("trial %d: library (id %d, value %v), daemon (id %d, value %v)", i, a.ID, a.Value, b.ID, b.Value)
		}
		if len(a.Config) != len(b.Config) {
			return fmt.Errorf("trial %d: config sizes %d and %d", i, len(a.Config), len(b.Config))
		}
		for k, va := range a.Config {
			vb := b.Config[k]
			if reflect.TypeOf(va) != reflect.TypeOf(vb) {
				return fmt.Errorf("trial %d knob %q: library %T, daemon %T", i, k, va, vb)
			}
			fa, isFloat := va.(float64)
			if isFloat && math.Float64bits(fa) != math.Float64bits(vb.(float64)) || !isFloat && va != vb {
				return fmt.Errorf("trial %d knob %q: library %v, daemon %v", i, k, va, vb)
			}
		}
	}
	return nil
}

// TestLibraryAndDaemonGiveOneStream pins that the library loop and the
// daemon are one ask/tell core: for every strategy, suggest 1 → evaluate
// → observe 1 gives the same history in-process and over HTTP, both
// uninterrupted and when stopped at step 20, reopened on its journal and
// continued to step 40.
func TestLibraryAndDaemonGiveOneStream(t *testing.T) {
	const steps, stop = 40, 20
	names := core.OptimizerNames()
	daemonDir, libDir := t.TempDir(), t.TempDir()

	s1, err := New(Options{StoreDir: daemonDir})
	if err != nil {
		t.Fatal(err)
	}
	h1 := httptest.NewServer(s1)
	c1 := NewClientHTTP(h1.URL, h1.Client())
	spaces := map[string]*space.Space{}
	for i, name := range names {
		spec := testSpec(name, int64(300+i))
		sp, err := buildSpace(spec.Space)
		if err != nil {
			t.Fatal(err)
		}
		spaces[name] = sp
		mustCreate(t, c1, "fresh-"+name, spec)
		mustCreate(t, c1, "resumed-"+name, spec)
		daemonSteps(t, c1, "fresh-"+name, sp, steps)
		daemonSteps(t, c1, "resumed-"+name, sp, stop)

		want := libraryRun(t, name, spec.Seed, sp, "", steps)
		got, err := s1.session("fresh-" + name).trials(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := sameHistory(want.Trials, got); err != nil {
			t.Errorf("%s fresh: %v", name, err)
		}
		libraryRun(t, name, spec.Seed, sp, filepath.Join(libDir, name), stop)
	}
	h1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Options{StoreDir: daemonDir})
	if err != nil {
		t.Fatal(err)
	}
	h2 := httptest.NewServer(s2)
	defer func() {
		h2.Close()
		if err := s2.Close(); err != nil {
			t.Error(err)
		}
	}()
	c2 := NewClientHTTP(h2.URL, h2.Client())
	for i, name := range names {
		sp := spaces[name]
		daemonSteps(t, c2, "resumed-"+name, sp, steps)
		want := libraryRun(t, name, int64(300+i), sp, filepath.Join(libDir, name), steps)
		if want.Resumed != stop {
			t.Fatalf("%s: library resumed %d trials, want %d", name, want.Resumed, stop)
		}
		got, err := s2.session("resumed-" + name).trials(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := sameHistory(want.Trials, got); err != nil {
			t.Errorf("%s resumed: %v", name, err)
		}
	}
}
