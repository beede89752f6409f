package space

import (
	"errors"
	"maps"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func testSpace(t *testing.T) *Space {
	t.Helper()
	s, err := New(
		Float("alpha", 0, 1).WithDefault(0.25),
		Int("threads", 1, 64).WithDefault(int64(8)),
		Float("buffer_mb", 64, 16384).WithLog().WithDefault(128.0),
		Categorical("flush", "fsync", "O_DIRECT", "nosync").WithDefault("fsync"),
		Bool("compress"),
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name   string
		params []Param
	}{
		{"duplicate", []Param{Float("x", 0, 1), Float("x", 0, 1)}},
		{"bad bounds", []Param{Float("x", 2, 1)}},
		{"log nonpositive", []Param{Float("x", 0, 1).WithLog()}},
		{"empty categorical", []Param{Categorical("c")}},
		{"dup level", []Param{Categorical("c", "a", "a")}},
		{"unknown parent", []Param{Float("x", 0, 1).WithParent("nope", "1")}},
		{"parent without values", []Param{Bool("p"), Float("x", 0, 1).WithParent("p")}},
		{"negative step", []Param{Float("x", 0, 1).WithStep(-1)}},
		{"empty name", []Param{Float("", 0, 1)}},
	}
	for _, c := range cases {
		if _, err := New(c.params...); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestDefault(t *testing.T) {
	s := testSpace(t)
	d := s.Default()
	if d.Float("alpha") != 0.25 {
		t.Fatalf("alpha default = %v", d["alpha"])
	}
	if d.Int("threads") != 8 {
		t.Fatalf("threads default = %v", d["threads"])
	}
	if d.Str("flush") != "fsync" {
		t.Fatalf("flush default = %v", d["flush"])
	}
	if d.Bool("compress") != false {
		t.Fatal("compress default should be false")
	}
	if err := s.Validate(d); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
}

func TestDefaultCoercion(t *testing.T) {
	// Int defaults given as plain int should coerce to int64.
	s := MustNew(Int("n", 1, 10).WithDefault(3))
	if v, ok := s.Default()["n"].(int64); !ok || v != 3 {
		t.Fatalf("default = %v (%T)", s.Default()["n"], s.Default()["n"])
	}
	// Float default given as int.
	s2 := MustNew(Float("f", 0, 10).WithDefault(7))
	if v, ok := s2.Default()["f"].(float64); !ok || v != 7 {
		t.Fatalf("default = %v (%T)", s2.Default()["f"], s2.Default()["f"])
	}
}

func TestSampleInDomain(t *testing.T) {
	s := testSpace(t)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		cfg := s.Sample(rng)
		if err := s.Validate(cfg); err != nil {
			t.Fatalf("sample %d invalid: %v", i, err)
		}
	}
}

func TestLogSamplingSkew(t *testing.T) {
	s := MustNew(Float("x", 1, 10000).WithLog())
	rng := rand.New(rand.NewSource(2))
	below := 0
	n := 4000
	for i := 0; i < n; i++ {
		if s.Sample(rng).Float("x") < 100 {
			below++
		}
	}
	// Log-uniform: P(x < 100) = log(100)/log(10000) = 0.5.
	frac := float64(below) / float64(n)
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("log-uniform fraction below 100 = %v, want ~0.5", frac)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := testSpace(t)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		cfg := s.Sample(rng)
		x := s.Encode(cfg)
		if len(x) != s.Dim() {
			t.Fatalf("encode dim %d, want %d", len(x), s.Dim())
		}
		for _, u := range x {
			if u < 0 || u > 1 {
				t.Fatalf("encode outside cube: %v", x)
			}
		}
		back := s.Decode(x)
		// Numerics round-trip approximately, categoricals/bools exactly.
		if back.Str("flush") != cfg.Str("flush") {
			t.Fatalf("flush round trip: %v -> %v", cfg.Str("flush"), back.Str("flush"))
		}
		if back.Bool("compress") != cfg.Bool("compress") {
			t.Fatal("compress round trip failed")
		}
		if math.Abs(back.Float("alpha")-cfg.Float("alpha")) > 1e-9 {
			t.Fatalf("alpha round trip: %v -> %v", cfg.Float("alpha"), back.Float("alpha"))
		}
		if back.Int("threads") != cfg.Int("threads") {
			t.Fatalf("threads round trip: %v -> %v", cfg.Int("threads"), back.Int("threads"))
		}
		relErr := math.Abs(back.Float("buffer_mb")-cfg.Float("buffer_mb")) / cfg.Float("buffer_mb")
		if relErr > 1e-9 {
			t.Fatalf("buffer_mb round trip rel err %v", relErr)
		}
	}
}

func TestDecodeTotality(t *testing.T) {
	s := testSpace(t)
	// Out-of-range and short inputs must still decode to valid configs.
	for _, x := range [][]float64{
		{-1, 2, 0.5, 99, -3},
		{},
		{0.5},
	} {
		cfg := s.Decode(x)
		if err := s.Validate(cfg); err != nil {
			t.Fatalf("decode(%v) invalid: %v", x, err)
		}
	}
}

func TestQuantization(t *testing.T) {
	s := MustNew(Float("q", 0, 10).WithStep(2.5))
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		v := s.Sample(rng).Float("q")
		mult := v / 2.5
		if math.Abs(mult-math.Round(mult)) > 1e-9 {
			t.Fatalf("value %v not a multiple of 2.5", v)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	s := testSpace(t)
	cfg := s.Default()
	cfg["alpha"] = 5.0
	if err := s.Validate(cfg); !errors.Is(err, ErrBadValue) {
		t.Fatalf("out of range: %v", err)
	}
	cfg = s.Default()
	cfg["flush"] = "bogus"
	if err := s.Validate(cfg); !errors.Is(err, ErrBadValue) {
		t.Fatalf("bad level: %v", err)
	}
	cfg = s.Default()
	delete(cfg, "threads")
	if err := s.Validate(cfg); !errors.Is(err, ErrBadValue) {
		t.Fatalf("missing: %v", err)
	}
	cfg = s.Default()
	cfg["threads"] = 8 // wrong type: int not int64
	if err := s.Validate(cfg); !errors.Is(err, ErrBadValue) {
		t.Fatalf("wrong type: %v", err)
	}
}

// TestNormalize: a JSON-decoded config, every number a float64, comes back
// typed by the space; a value that cannot be typed or lies outside its
// domain is an error. A violated constraint is not: the configuration is
// still well-formed, and a trial may have run it.
func TestNormalize(t *testing.T) {
	s := testSpace(t).WithConstraints(Constraint{Name: "never", Check: func(Config) bool { return false }})
	raw := map[string]any{"alpha": 0.5, "threads": 8.0, "buffer_mb": 128.0, "flush": "fsync", "compress": true}
	cfg, err := s.Normalize(raw)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := cfg["threads"].(int64); !ok || v != 8 {
		t.Fatalf("threads = %#v, want int64(8)", cfg["threads"])
	}
	for name, mutate := range map[string]func(map[string]any){
		"fractional int": func(m map[string]any) { m["threads"] = 8.5 },
		"unknown knob":   func(m map[string]any) { m["bogus"] = 1.0 },
		"wrong kind":     func(m map[string]any) { m["compress"] = "yes" },
		"out of range":   func(m map[string]any) { m["alpha"] = 5.0 },
		"missing":        func(m map[string]any) { delete(m, "flush") },
	} {
		bad := maps.Clone(raw)
		mutate(bad)
		if _, err := s.Normalize(bad); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestConstraints(t *testing.T) {
	s := testSpace(t).WithConstraints(Constraint{
		Name: "threads <= buffer_mb/64",
		Check: func(c Config) bool {
			return float64(c.Int("threads")) <= c.Float("buffer_mb")/64
		},
	})
	rng := rand.New(rand.NewSource(5))
	cfg, err := s.SampleValid(rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(cfg); err != nil {
		t.Fatal(err)
	}
	bad := s.Default()
	bad["threads"] = int64(64)
	bad["buffer_mb"] = 64.0
	if err := s.Validate(bad); !errors.Is(err, ErrConstraint) {
		t.Fatalf("want constraint violation, got %v", err)
	}
}

func TestConditionalActive(t *testing.T) {
	s := MustNew(
		Bool("jit"),
		Float("jit_above_cost", 0, 1e6).WithParent("jit", "true"),
		Categorical("mode", "a", "b", "c"),
		Float("a_only", 0, 1).WithParent("mode", "a"),
		Float("nested", 0, 1).WithParent("a_only", "0.5"), // contrived nesting
	)
	cfg := s.Default()
	cfg["jit"] = false
	if s.Active(cfg, "jit_above_cost") {
		t.Fatal("child active with jit=false")
	}
	cfg["jit"] = true
	if !s.Active(cfg, "jit_above_cost") {
		t.Fatal("child inactive with jit=true")
	}
	cfg["mode"] = "b"
	if s.Active(cfg, "a_only") {
		t.Fatal("a_only active with mode=b")
	}
	if s.Active(cfg, "nested") {
		t.Fatal("nested should be inactive when ancestor inactive")
	}
	if s.Active(cfg, "missing") {
		t.Fatal("unknown param should be inactive")
	}
}

func TestEncodeInactiveUsesDefault(t *testing.T) {
	s := MustNew(
		Bool("jit"),
		Float("jit_cost", 0, 100).WithDefault(10.0).WithParent("jit", "true"),
	)
	off := s.Default()
	off["jit"] = false
	off["jit_cost"] = 77.0 // garbage value; should be masked
	on := off.Clone()
	on["jit_cost"] = 10.0 // same as default
	xOff := s.Encode(off)
	xOn := s.Encode(on)
	if xOff[1] != xOn[1] {
		t.Fatalf("inactive encode %v, want default encode %v", xOff[1], xOn[1])
	}
}

func TestOneHot(t *testing.T) {
	s := testSpace(t)
	if got, want := s.OneHotDim(), 4+3; got != want {
		t.Fatalf("OneHotDim = %d, want %d", got, want)
	}
	cfg := s.Default()
	cfg["flush"] = "O_DIRECT"
	x := s.EncodeOneHot(cfg)
	if len(x) != 7 {
		t.Fatalf("len = %d", len(x))
	}
	// flush occupies dims 3..5 (alpha, threads, buffer, then categorical).
	if x[3] != 0 || x[4] != 1 || x[5] != 0 {
		t.Fatalf("one-hot block = %v", x[3:6])
	}
	ones := 0
	for _, v := range x[3:6] {
		if v == 1 {
			ones++
		}
	}
	if ones != 1 {
		t.Fatal("one-hot block should have exactly one 1")
	}
}

func TestGrid(t *testing.T) {
	s := MustNew(
		Float("x", 0, 1),
		Categorical("c", "a", "b"),
	)
	g := s.Grid(3)
	if len(g) != 6 {
		t.Fatalf("grid size = %d, want 6", len(g))
	}
	for _, cfg := range g {
		if err := s.Validate(cfg); err != nil {
			t.Fatal(err)
		}
	}
	// Grid filters constrained-out points.
	sc := s.WithConstraints(Constraint{"x<0.6", func(c Config) bool { return c.Float("x") < 0.6 }})
	g = sc.Grid(3) // x levels: 0, 0.5, 1 -> 1 filtered out
	if len(g) != 4 {
		t.Fatalf("constrained grid size = %d, want 4", len(g))
	}
}

func TestGridBudget(t *testing.T) {
	s := MustNew(Float("x", 0, 1), Float("y", 0, 1))
	g := s.GridBudget(25)
	if len(g) != 25 {
		t.Fatalf("grid budget 25 -> %d points", len(g))
	}
	g = s.GridBudget(20) // floor(sqrt(20)) = 4 -> 16
	if len(g) != 16 {
		t.Fatalf("grid budget 20 -> %d points", len(g))
	}
}

func TestGridDedupQuantizedInts(t *testing.T) {
	s := MustNew(Int("n", 1, 3))
	g := s.Grid(10) // only 3 distinct values
	if len(g) != 3 {
		t.Fatalf("int grid size = %d, want 3", len(g))
	}
}

func TestNeighborStaysValidAndLocal(t *testing.T) {
	s := testSpace(t)
	rng := rand.New(rand.NewSource(6))
	cfg := s.Default()
	for i := 0; i < 100; i++ {
		nb := s.Neighbor(cfg, 0.05, rng)
		if err := s.Validate(nb); err != nil {
			t.Fatal(err)
		}
		if math.Abs(nb.Float("alpha")-cfg.Float("alpha")) > 0.5 {
			t.Fatalf("neighbor moved too far: %v -> %v", cfg.Float("alpha"), nb.Float("alpha"))
		}
	}
}

func TestClip(t *testing.T) {
	s := testSpace(t)
	dirty := Config{
		"alpha":     5.0,
		"threads":   int64(1000),
		"buffer_mb": 1.0,
		"flush":     "bogus",
		// compress missing
	}
	clean := s.Clip(dirty)
	if err := s.Validate(clean); err != nil {
		t.Fatalf("clip result invalid: %v", err)
	}
	if clean.Float("alpha") != 1 || clean.Int("threads") != 64 {
		t.Fatalf("clip = %v", clean)
	}
	if clean.Str("flush") != "fsync" {
		t.Fatalf("bogus categorical should snap to first level, got %v", clean.Str("flush"))
	}
}

func TestConfigKeyCanonical(t *testing.T) {
	a := Config{"x": 1.0, "y": "b", "z": int64(3)}
	b := Config{"z": int64(3), "y": "b", "x": 1.0}
	if a.Key() != b.Key() {
		t.Fatalf("keys differ: %q vs %q", a.Key(), b.Key())
	}
	c := a.Clone()
	c["x"] = 2.0
	if a.Key() == c.Key() {
		t.Fatal("different configs share key")
	}
	if !strings.Contains(a.Key(), "x=") {
		t.Fatalf("key format: %q", a.Key())
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Config{"x": 1.0}
	b := a.Clone()
	b["x"] = 2.0
	if a.Float("x") != 1.0 {
		t.Fatal("clone aliases")
	}
}

func TestSubspace(t *testing.T) {
	s := MustNew(
		Bool("jit"),
		Float("jit_cost", 0, 1).WithParent("jit", "true"),
		Float("x", 0, 1),
	)
	sub, err := s.Subspace("x", "jit_cost")
	if err != nil {
		t.Fatal(err)
	}
	if sub.Dim() != 2 {
		t.Fatalf("dim = %d", sub.Dim())
	}
	// jit_cost's parent was dropped, so it must be unconditional now.
	p, _ := sub.Param("jit_cost")
	if p.Parent != "" {
		t.Fatal("orphaned conditional should become unconditional")
	}
	if _, err := s.Subspace("missing"); err == nil {
		t.Fatal("unknown name should error")
	}
}

func TestKindString(t *testing.T) {
	if KindFloat.String() != "float" || KindCategorical.String() != "categorical" {
		t.Fatal("Kind.String broken")
	}
}

// Property: Decode always produces a config that validates (ignoring
// constraints), for arbitrary inputs.
func TestDecodeValidatesProperty(t *testing.T) {
	s := testSpace(t)
	f := func(raw []float64) bool {
		cfg := s.Decode(raw)
		return s.Validate(cfg) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Encode∘Decode is idempotent on the unit cube for numeric params
// (up to quantization) — decoding then re-encoding then re-decoding gives
// the same config.
func TestEncodeDecodeIdempotentProperty(t *testing.T) {
	s := testSpace(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, s.Dim())
		for i := range x {
			x[i] = rng.Float64()
		}
		c1 := s.Decode(x)
		c2 := s.Decode(s.Encode(c1))
		return c1.Key() == c2.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
