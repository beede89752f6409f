package pso

import (
	"math/rand"
	"testing"

	"autotune/internal/optimizer"
	"autotune/internal/space"
	"autotune/internal/testfunc"
	"autotune/internal/trial"
)

func TestPSOOnSphere(t *testing.T) {
	f := testfunc.Sphere(4)
	p := New(f.Space, rand.New(rand.NewSource(1)))
	_, val, err := minimize(p, f.Eval, 400)
	if err != nil {
		t.Fatal(err)
	}
	if val > 0.5 {
		t.Fatalf("PSO best = %v", val)
	}
	if p.Iteration() < 10 {
		t.Fatalf("iterations = %d", p.Iteration())
	}
	if p.Name() != "pso" {
		t.Fatal("name")
	}
}

func TestPSOBeatsRandomOnAckley(t *testing.T) {
	f := testfunc.Ackley(4)
	budget := 400
	var pSum, rSum float64
	for i := 0; i < 5; i++ {
		p := New(f.Space, rand.New(rand.NewSource(int64(30+i))))
		r := optimizer.NewRandom(f.Space, rand.New(rand.NewSource(int64(30+i))))
		_, pv, err := minimize(p, f.Eval, budget)
		if err != nil {
			t.Fatal(err)
		}
		_, rv, err := minimize(r, f.Eval, budget)
		if err != nil {
			t.Fatal(err)
		}
		pSum += pv
		rSum += rv
	}
	if pSum >= rSum {
		t.Fatalf("PSO mean %v should beat random mean %v", pSum/5, rSum/5)
	}
}

func TestPSOSeedsDefault(t *testing.T) {
	s := space.MustNew(space.Float("x", 0, 1).WithDefault(0.77))
	p := New(s, rand.New(rand.NewSource(2)))
	cfg, err := p.Suggest()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Float("x") != 0.77 {
		t.Fatalf("first particle = %v, want default", cfg)
	}
}

func TestPSOForeignObservation(t *testing.T) {
	f := testfunc.Sphere(2)
	p := New(f.Space, rand.New(rand.NewSource(3)))
	s := trial.NewStudy(p, nil)
	if _, _, err := s.Observe([]trial.TrialRecord{{Config: f.Space.Default(), Value: -100}}); err != nil { // better than anything
		t.Fatal(err)
	}
	if best, ok := s.Best(); !ok || best.Value != -100 {
		t.Fatal("foreign observation not recorded")
	}
	// Still optimizes fine afterwards.
	if _, _, err := minimize(p, f.Eval, 100); err != nil {
		t.Fatal(err)
	}
}

func TestPSOPositionsStayInCube(t *testing.T) {
	f := testfunc.Sphere(3)
	p := New(f.Space, rand.New(rand.NewSource(4)))
	for i := 0; i < 200; i++ {
		cfg, err := p.Suggest()
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Space.Validate(cfg); err != nil {
			t.Fatalf("invalid suggestion: %v", err)
		}
		p.Observe(cfg, f.Eval(cfg))
	}
}

// minimize drives o against f for the budget through the tuning loop and
// returns the incumbent.
func minimize(o optimizer.Optimizer, f func(space.Config) float64, budget int) (space.Config, float64, error) {
	rep, err := trial.Run(trial.NewStudy(o, nil), &trial.FuncEnv{F: f}, trial.Options{Budget: budget})
	return rep.BestConfig, rep.BestValue, err
}
