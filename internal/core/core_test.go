package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"autotune/internal/resilience"
	"autotune/internal/space"
	"autotune/internal/trial"
)

func TestRegistryConstructsAll(t *testing.T) {
	s := space.MustNew(space.Float("x", 0, 1), space.Categorical("c", "a", "b"))
	rng := rand.New(rand.NewSource(1))
	for _, name := range OptimizerNames() {
		o, err := NewOptimizer(name, s, rng)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg, err := o.Suggest()
		if err != nil {
			t.Fatalf("%s suggest: %v", name, err)
		}
		if err := s.Validate(cfg); err != nil {
			t.Fatalf("%s invalid suggestion: %v", name, err)
		}
		if err := o.Observe(cfg, 1); err != nil {
			t.Fatalf("%s observe: %v", name, err)
		}
	}
	if _, err := NewOptimizer("bogus", s, rng); err == nil {
		t.Fatal("unknown name should error")
	}
}

// TestTunerEndToEnd tunes with a registry-built optimizer through the
// offline loop.
func TestTunerEndToEnd(t *testing.T) {
	env := &trial.FuncEnv{
		Sp: space.MustNew(space.Float("x", 0, 1)),
		F:  func(c space.Config) float64 { return math.Abs(c.Float("x") - 0.3) },
	}
	o, err := NewOptimizer("bo", env.Space(), rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := trial.Run(trial.NewStudy(o, nil), env, trial.Options{Budget: 25})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BestValue > 0.05 {
		t.Fatalf("best = %v", rep.BestValue)
	}
}

// onlineQuad is a toy online system: loss = (x - target)^2 + noise, where
// target depends on the regime (context). Calling shift() moves the
// regime.
type onlineQuad struct {
	sp      *space.Space
	cur     space.Config
	regime  float64 // context feature; optimum x = regime
	rng     *rand.Rand
	applies int
}

func newOnlineQuad(seed int64) *onlineQuad {
	return &onlineQuad{
		sp:     space.MustNew(space.Float("x", 0, 1).WithDefault(0.5)),
		regime: 0.2,
		rng:    rand.New(rand.NewSource(seed)),
	}
}

func (o *onlineQuad) Space() *space.Space { return o.sp }

func (o *onlineQuad) Apply(cfg space.Config) error {
	o.cur = cfg.Clone()
	o.applies++
	return nil
}

func (o *onlineQuad) Measure() (float64, []float64) {
	x := o.cur.Float("x")
	loss := (x-o.regime)*(x-o.regime) + 0.001*o.rng.NormFloat64()
	if loss < 0 {
		loss = 0
	}
	return loss, []float64{o.regime}
}

func TestAgentImprovesOnline(t *testing.T) {
	sys := newOnlineQuad(1)
	pol := NewRandomWalkPolicy(sys.Space())
	agent, err := NewAgent(sys, pol, Guardrails{}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	var first, last float64
	for i := 0; i < 200; i++ {
		rep, err := agent.Step()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = rep.Loss
		}
		last = rep.Loss
	}
	_, incLoss := agent.Incumbent()
	if !(incLoss < first) {
		t.Fatalf("incumbent loss %v did not improve on start %v (last %v)", incLoss, first, last)
	}
	if agent.Steps() != 200 {
		t.Fatalf("steps = %d", agent.Steps())
	}
}

func TestAgentGuardrailRollsBack(t *testing.T) {
	sys := newOnlineQuad(3)
	// A policy that proposes terrible configs after warmup.
	pol := &sabotagePolicy{sp: sys.Space()}
	agent, err := NewAgent(sys, pol, Guardrails{MaxRegression: 0.1, Patience: 2}, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	sawRollback := false
	for i := 0; i < 30; i++ {
		rep, err := agent.Step()
		if err != nil {
			t.Fatal(err)
		}
		if rep.RolledBack {
			sawRollback = true
			// Immediately after a rollback the system must be running
			// the incumbent again.
			inc, _ := agent.Incumbent()
			if math.Abs(sys.cur.Float("x")-inc.Float("x")) > 1e-9 {
				t.Fatalf("after rollback system runs %v, incumbent %v", sys.cur, inc)
			}
		}
	}
	if !sawRollback || agent.Rollbacks() == 0 {
		t.Fatal("guardrail never fired against a sabotage policy")
	}
}

type sabotagePolicy struct{ sp *space.Space }

func (p *sabotagePolicy) Name() string { return "sabotage" }

func (p *sabotagePolicy) Propose(inc space.Config, ctx []float64, rng *rand.Rand) space.Config {
	return space.Config{"x": 1.0} // far from any regime in the tests
}

func (p *sabotagePolicy) Feedback(space.Config, []float64, float64) {}

func TestAgentExploreScaleBoundsMoves(t *testing.T) {
	sys := newOnlineQuad(5)
	pol := &sabotagePolicy{sp: sys.Space()}
	agent, _ := NewAgent(sys, pol, Guardrails{ExploreScale: 0.05, MaxRegression: 100}, rand.New(rand.NewSource(6)))
	agent.Step() // bootstrap at default 0.5
	rep, err := agent.Step()
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage proposes 1.0 but the guardrail clamps to 0.5 +/- 0.05.
	if rep.Config.Float("x") > 0.56 {
		t.Fatalf("explore bound violated: %v", rep.Config)
	}
}

func TestDeltaPolicyMovesOneKnob(t *testing.T) {
	sp := space.MustNew(space.Float("a", 0, 1).WithDefault(0.5), space.Float("b", 0, 1).WithDefault(0.5))
	pol, err := NewDeltaPolicy(sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	inc := sp.Default()
	moved := 0
	for i := 0; i < 50; i++ {
		next := pol.Propose(inc, []float64{0.5}, rng)
		da := math.Abs(next.Float("a") - inc.Float("a"))
		db := math.Abs(next.Float("b") - inc.Float("b"))
		if da > 0 && db > 0 {
			t.Fatalf("delta policy moved two knobs at once: %v", next)
		}
		if da > 0.11 || db > 0.11 {
			t.Fatalf("step too large: %v", next)
		}
		if da+db > 0 {
			moved++
		}
		pol.Feedback(next, []float64{0.5}, 1)
	}
	if moved == 0 {
		t.Fatal("policy never moved")
	}
}

func TestDeltaPolicyRejectsNoNumeric(t *testing.T) {
	sp := space.MustNew(space.Categorical("c", "a", "b"))
	if _, err := NewDeltaPolicy(sp, nil); err == nil {
		t.Fatal("expected error with no numeric knobs")
	}
}

func TestBanditPolicyLearnsContextualArms(t *testing.T) {
	sp := space.MustNew(space.Float("x", 0, 1))
	arms := []space.Config{{"x": 0.2}, {"x": 0.8}}
	pol, err := NewBanditPolicy(arms)
	if err != nil {
		t.Fatal(err)
	}
	if len(pol.Arms()) != 2 {
		t.Fatal("arms")
	}
	rng := rand.New(rand.NewSource(8))
	// Context 0 prefers arm 0, context 1 prefers arm 1.
	loss := func(cfg space.Config, ctx float64) float64 {
		target := 0.2
		if ctx > 0.5 {
			target = 0.8
		}
		return math.Abs(cfg.Float("x") - target)
	}
	for i := 0; i < 800; i++ {
		// Random regime order: a deterministic alternation would be
		// perfectly confounded with the bandit's own arm alternation.
		ctx := []float64{float64(rng.Intn(2))}
		cfg := pol.Propose(sp.Default(), ctx, rng)
		pol.Feedback(cfg, ctx, loss(cfg, ctx[0])+0.01*rng.NormFloat64())
	}
	// After training, greedy choice should be context-appropriate most of
	// the time (bandit still explores a little).
	lowPicks, highPicks := 0, 0
	for i := 0; i < 100; i++ {
		if pol.Propose(sp.Default(), []float64{0}, rng).Float("x") == 0.2 {
			lowPicks++
		}
		if pol.Propose(sp.Default(), []float64{1}, rng).Float("x") == 0.8 {
			highPicks++
		}
	}
	if lowPicks < 60 || highPicks < 60 {
		t.Fatalf("context arms not learned: low %d/100 high %d/100", lowPicks, highPicks)
	}
}

func TestNewAgentValidation(t *testing.T) {
	if _, err := NewAgent(nil, nil, Guardrails{}, nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestSafeBOPolicyImprovesWithoutBigRegressions(t *testing.T) {
	sys := newOnlineQuad(11)
	pol := NewSafeBOPolicy(sys.Space(), 12)
	agent, err := NewAgent(sys, pol, Guardrails{MaxRegression: 0.5, Patience: 3}, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	var losses []float64
	for i := 0; i < 150; i++ {
		rep, err := agent.Step()
		if err != nil {
			t.Fatal(err)
		}
		losses = append(losses, rep.Loss)
	}
	_, incLoss := agent.Incumbent()
	if incLoss > losses[0] {
		t.Fatalf("incumbent %v did not improve on start %v", incLoss, losses[0])
	}
	// Safety: after warm-up, steps should rarely be catastrophically worse
	// than the start (the quad's worst value is ~0.64 at x=1 vs start 0.09).
	bad := 0
	for _, l := range losses[20:] {
		if l > losses[0]*4 {
			bad++
		}
	}
	if bad > len(losses)/5 {
		t.Fatalf("%d/%d post-warmup steps were catastrophic", bad, len(losses)-20)
	}
	if pol.Name() != "safe-bo" {
		t.Fatal("name")
	}
}

func TestSafeBOPolicyAvoidsKnownBadRegion(t *testing.T) {
	sp := space.MustNew(space.Float("x", 0, 1).WithDefault(0.2))
	pol := NewSafeBOPolicy(sp, 14)
	pol.MinObservations = 3
	rng := rand.New(rand.NewSource(15))
	inc := space.Config{"x": 0.2}
	// Observed surface: gentle near the incumbent, terrible above 0.6.
	pol.Feedback(inc, nil, 0.10)
	for i := 0; i < 12; i++ {
		x := rng.Float64()
		loss := 0.1 + 0.2*math.Abs(x-0.2)
		if x > 0.6 {
			loss = 10
		}
		pol.Feedback(space.Config{"x": x}, nil, loss)
	}
	ventured := 0
	for i := 0; i < 40; i++ {
		if pol.Propose(inc, nil, rng).Float("x") > 0.6 {
			ventured++
		}
	}
	if ventured > 4 {
		t.Fatalf("policy proposed into the known-bad region %d/40 times", ventured)
	}
}

func TestActorCriticPolicyLearnsDirection(t *testing.T) {
	sp := space.MustNew(space.Float("x", 0, 1).WithDefault(0.8))
	pol, err := NewActorCriticPolicy(sp, nil, 1, 21)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	// Loss decreases as x decreases: the policy should learn to step down.
	inc := sp.Default()
	for i := 0; i < 400; i++ {
		next := pol.Propose(inc, []float64{inc.Float("x")}, rng)
		loss := next.Float("x")
		pol.Feedback(next, []float64{next.Float("x")}, loss)
		if loss < inc.Float("x") {
			inc = next
		}
	}
	if inc.Float("x") > 0.4 {
		t.Fatalf("actor-critic did not descend: x = %v", inc.Float("x"))
	}
	if pol.Name() != "actor-critic" {
		t.Fatal("name")
	}
}

func TestActorCriticPolicyValidation(t *testing.T) {
	sp := space.MustNew(space.Categorical("c", "a", "b"))
	if _, err := NewActorCriticPolicy(sp, nil, 1, 1); err == nil {
		t.Fatal("no numeric knobs should error")
	}
	sp2 := space.MustNew(space.Float("x", 0, 1))
	if _, err := NewActorCriticPolicy(sp2, nil, 0, 1); err == nil {
		t.Fatal("zero state dim should error")
	}
}

// flakyApplySys fails every other Apply transiently — a live "SET knob"
// path that drops connections.
type flakyApplySys struct {
	*onlineQuad
	calls int
}

func (f *flakyApplySys) Apply(cfg space.Config) error {
	f.calls++
	if f.calls%2 == 1 {
		return fmt.Errorf("conn reset: %w", resilience.ErrTransient)
	}
	return f.onlineQuad.Apply(cfg)
}

func TestAgentRetriesTransientApply(t *testing.T) {
	sys := &flakyApplySys{onlineQuad: newOnlineQuad(3)}
	pol := NewRandomWalkPolicy(sys.Space())
	agent, err := NewAgent(sys, pol,
		Guardrails{ApplyRetries: 2, ApplyBackoff: time.Nanosecond},
		rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := agent.Step(); err != nil {
			t.Fatalf("step %d not retried: %v", i, err)
		}
	}

	// Fail-fast without retries: the first transient apply surfaces.
	sys2 := &flakyApplySys{onlineQuad: newOnlineQuad(5)}
	agent2, err := NewAgent(sys2, NewRandomWalkPolicy(sys2.Space()), Guardrails{},
		rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent2.Step(); err == nil {
		t.Fatal("transient apply without retries should error")
	}
}
