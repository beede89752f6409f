package autotune_test

import (
	"math"
	"testing"

	"autotune"
)

func TestFacadeMinimize(t *testing.T) {
	sp := autotune.MustSpace(
		autotune.Float("x", -5, 5),
		autotune.Float("y", -5, 5),
	)
	f := func(c autotune.Config) float64 {
		dx := c.Float("x") - 1
		dy := c.Float("y") + 2
		return dx*dx + dy*dy
	}
	o, err := autotune.NewOptimizer("bo", sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg, val, err := autotune.Minimize(o, f, 30)
	if err != nil {
		t.Fatal(err)
	}
	if val > 0.5 {
		t.Fatalf("best = %v at %v", val, cfg)
	}
}

func TestFacadeBOSurrogateTiers(t *testing.T) {
	sp := autotune.MustSpace(
		autotune.Float("x", -5, 5),
		autotune.Float("y", -5, 5),
	)
	f := func(c autotune.Config) float64 {
		dx := c.Float("x") - 1
		dy := c.Float("y") + 2
		return dx*dx + dy*dy
	}
	pol, ok := autotune.ParseSurrogate("sparse")
	if !ok || pol != autotune.SurrogateSparse {
		t.Fatalf("ParseSurrogate(sparse) = %v, %v", pol, ok)
	}
	o := autotune.NewBO(sp, 1, autotune.BOOptions{
		OneHot: true, Surrogate: autotune.SurrogateSparse, SparseBudget: 16,
	})
	if _, _, err := autotune.Minimize(o, f, 25); err != nil {
		t.Fatal(err)
	}
	if st := o.Stats(); st.Tier != "sparse" {
		t.Fatalf("tier = %q, want sparse", st.Tier)
	}
}

func TestFacadeAllOptimizerNames(t *testing.T) {
	sp := autotune.MustSpace(autotune.Float("x", 0, 1))
	for _, name := range autotune.OptimizerNames() {
		o, err := autotune.NewOptimizer(name, sp, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := o.Suggest(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := autotune.NewOptimizer("nope", sp, 2); err == nil {
		t.Fatal("unknown optimizer should error")
	}
}

func TestFacadeTune(t *testing.T) {
	sp := autotune.MustSpace(autotune.Float("x", 0, 1))
	env := &autotune.FuncEnv{
		Sp: sp,
		F:  func(c autotune.Config) float64 { return math.Abs(c.Float("x") - 0.25) },
	}
	o, err := autotune.NewOptimizer("random", sp, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := autotune.Tune(autotune.NewStudy(o, nil), env, autotune.TuneOptions{Budget: 40})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BestValue > 0.05 {
		t.Fatalf("best = %v", rep.BestValue)
	}
}

func TestFacadeSpaceBuilders(t *testing.T) {
	sp, err := autotune.NewSpace(
		autotune.Float("f", 0, 1),
		autotune.Int("i", 1, 10),
		autotune.Categorical("c", "a", "b"),
		autotune.Bool("b"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Dim() != 4 {
		t.Fatalf("dim = %d", sp.Dim())
	}
	if _, err := autotune.NewSpace(autotune.Float("bad", 2, 1)); err == nil {
		t.Fatal("invalid bounds should error")
	}
}

func TestFacadeExperimentsRegistry(t *testing.T) {
	ids := autotune.Experiments()
	if len(ids) != 28 {
		t.Fatalf("experiments = %d", len(ids))
	}
	tab, err := autotune.RunExperiment("F1", true, 7)
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "F1" || len(tab.Rows) == 0 {
		t.Fatalf("table: %+v", tab)
	}
}

func TestFacadeOnlineAgent(t *testing.T) {
	sys := &toyOnline{sp: autotune.MustSpace(autotune.Float("x", 0, 1).WithDefault(0.9))}
	agent, err := autotune.NewAgent(sys, autotune.NewRandomWalkPolicy(sys.sp), autotune.Guardrails{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := agent.Step(); err != nil {
			t.Fatal(err)
		}
	}
	inc, loss := agent.Incumbent()
	if inc == nil || loss > 0.5 {
		t.Fatalf("incumbent %v loss %v", inc, loss)
	}
}

type toyOnline struct {
	sp  *autotune.Space
	cur autotune.Config
}

func (s *toyOnline) Space() *autotune.Space { return s.sp }

func (s *toyOnline) Apply(cfg autotune.Config) error {
	s.cur = cfg.Clone()
	return nil
}

func (s *toyOnline) Measure() (float64, []float64) {
	x := s.cur.Float("x")
	return (x - 0.2) * (x - 0.2), []float64{0.5}
}

func TestFacadePolicies(t *testing.T) {
	sp := autotune.MustSpace(autotune.Float("x", 0, 1))
	if _, err := autotune.NewDeltaPolicy(sp, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := autotune.NewBanditPolicy([]autotune.Config{{"x": 0.1}, {"x": 0.9}}); err != nil {
		t.Fatal(err)
	}
	if _, err := autotune.NewBanditPolicy(nil); err == nil {
		t.Fatal("empty arms should error")
	}
	if _, err := autotune.NewActorCriticPolicy(sp, nil, 2, 1); err != nil {
		t.Fatal(err)
	}
	if autotune.NewSafeBOPolicy(sp, 1).Name() != "safe-bo" {
		t.Fatal("safe-bo facade")
	}
}
