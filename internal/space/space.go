// Package space models tunable configuration spaces: typed parameters
// (float, int, categorical, bool) with bounds, log scaling, quantization,
// special values, conditional activation ("structured spaces"), and
// cross-parameter constraints.
//
// A Space supports the three views every optimizer in this framework needs:
//
//   - the typed view: Config maps parameter names to Go values;
//   - the unit-cube view: Encode/Decode map configs to [0,1]^d with one
//     dimension per parameter (categoricals become scaled indices);
//   - the one-hot view: EncodeOneHot expands categoricals to indicator
//     dimensions, which distance-based surrogates (GPs) prefer.
//
// All sampling is driven by an explicit *rand.Rand so that experiments are
// reproducible.
package space

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates parameter types.
type Kind int

// Parameter kinds.
const (
	KindFloat Kind = iota
	KindInt
	KindCategorical
	KindBool
)

// String returns the lower-case kind name.
func (k Kind) String() string {
	switch k {
	case KindFloat:
		return "float"
	case KindInt:
		return "int"
	case KindCategorical:
		return "categorical"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Param describes one tunable parameter. Construct with Float, Int,
// Categorical, or Bool and refine with the With* builder methods; zero
// values are not meaningful.
type Param struct {
	Name string
	Kind Kind

	// Numeric bounds, inclusive. For KindInt they are integral.
	Min, Max float64
	// Log requests log-scale encoding; requires Min > 0.
	Log bool
	// Step quantizes float parameters to multiples of Step above Min
	// (0 means continuous). Ints always quantize to 1.
	Step float64
	// Values lists categorical levels in declaration order.
	Values []string
	// Def is the default value (typed as the parameter's Go type).
	Def any
	// Special lists "special" numeric values (e.g. 0 = feature off) that
	// biased samplers should hit with extra probability.
	Special []float64
	// Parent and ParentValues make this parameter conditional: it is
	// active only when the parent parameter's value (in string form) is
	// one of ParentValues.
	Parent       string
	ParentValues []string
}

// Float declares a continuous parameter on [min, max].
func Float(name string, min, max float64) Param {
	return Param{Name: name, Kind: KindFloat, Min: min, Max: max, Def: (min + max) / 2}
}

// Int declares an integer parameter on [min, max] inclusive.
func Int(name string, min, max int64) Param {
	return Param{Name: name, Kind: KindInt, Min: float64(min), Max: float64(max), Def: (min + max) / 2}
}

// Categorical declares a categorical parameter with the given levels.
func Categorical(name string, values ...string) Param {
	var def any
	if len(values) > 0 {
		def = values[0]
	}
	return Param{Name: name, Kind: KindCategorical, Values: values, Def: def}
}

// Bool declares a boolean parameter defaulting to false.
func Bool(name string) Param {
	return Param{Name: name, Kind: KindBool, Def: false}
}

// WithLog enables log-scale encoding. Min must be positive.
func (p Param) WithLog() Param { p.Log = true; return p }

// WithStep quantizes a float parameter to multiples of step above Min.
func (p Param) WithStep(step float64) Param { p.Step = step; return p }

// WithDefault sets the default value.
func (p Param) WithDefault(def any) Param { p.Def = def; return p }

// WithSpecial marks numeric special values for biased sampling.
func (p Param) WithSpecial(vals ...float64) Param { p.Special = vals; return p }

// WithParent makes the parameter conditional on parent taking one of the
// given values (string form: "true"/"false" for bools, decimal for ints).
func (p Param) WithParent(parent string, values ...string) Param {
	p.Parent = parent
	p.ParentValues = values
	return p
}

// IsNumeric reports whether the parameter is float- or int-kinded.
func (p Param) IsNumeric() bool { return p.Kind == KindFloat || p.Kind == KindInt }

// Levels returns the number of categorical levels (bools have 2, numerics 0).
func (p Param) Levels() int {
	switch p.Kind {
	case KindCategorical:
		return len(p.Values)
	case KindBool:
		return 2
	default:
		return 0
	}
}

// Config is an assignment of values to parameter names. Values are float64
// for KindFloat, int64 for KindInt, string for KindCategorical, and bool
// for KindBool.
type Config map[string]any

// Clone returns a shallow copy of the config (values are scalars).
func (c Config) Clone() Config {
	out := make(Config, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}

// Float returns the named value coerced to float64. Missing keys and
// non-numeric values return 0.
func (c Config) Float(name string) float64 {
	switch v := c[name].(type) {
	case float64:
		return v
	case int64:
		return float64(v)
	case int:
		return float64(v)
	case bool:
		if v {
			return 1
		}
		return 0
	default:
		return 0
	}
}

// Int returns the named value coerced to int64 (floats are rounded).
func (c Config) Int(name string) int64 {
	switch v := c[name].(type) {
	case int64:
		return v
	case int:
		return int64(v)
	case float64:
		return int64(math.Round(v))
	case bool:
		if v {
			return 1
		}
		return 0
	default:
		return 0
	}
}

// Str returns the named value as a string ("" if missing).
func (c Config) Str(name string) string {
	switch v := c[name].(type) {
	case string:
		return v
	case nil:
		return ""
	default:
		return valueString(v)
	}
}

// Bool returns the named value as a bool (false if missing or non-bool).
func (c Config) Bool(name string) bool {
	b, _ := c[name].(bool)
	return b
}

// Key returns a canonical, order-independent string form of the config,
// suitable as a map key or for deduplication.
func (c Config) Key() string {
	names := make([]string, 0, len(c))
	for k := range c {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, k := range names {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(valueString(c[k]))
	}
	return b.String()
}

func valueString(v any) string {
	switch x := v.(type) {
	case float64:
		return strconv.FormatFloat(x, 'g', 12, 64)
	case int64:
		return strconv.FormatInt(x, 10)
	case int:
		return strconv.Itoa(x)
	case string:
		return x
	case bool:
		return strconv.FormatBool(x)
	default:
		return fmt.Sprintf("%v", v)
	}
}

// Constraint is a named cross-parameter validity predicate. Check must be
// pure and fast; it is called during sampling and validation.
type Constraint struct {
	Name  string
	Check func(Config) bool
}

// Space is an immutable set of parameters plus constraints.
type Space struct {
	params      []Param
	index       map[string]int
	constraints []Constraint
}

// Errors returned by space construction and validation.
var (
	ErrDuplicateParam = errors.New("space: duplicate parameter name")
	ErrBadBounds      = errors.New("space: invalid bounds")
	ErrUnknownParam   = errors.New("space: unknown parameter")
	ErrBadValue       = errors.New("space: value out of domain")
	ErrConstraint     = errors.New("space: constraint violated")
)

// New validates the parameter list and returns a Space.
func New(params ...Param) (*Space, error) {
	s := &Space{index: make(map[string]int, len(params))}
	for _, p := range params {
		if p.Name == "" {
			return nil, fmt.Errorf("space: empty parameter name")
		}
		if _, dup := s.index[p.Name]; dup {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateParam, p.Name)
		}
		switch p.Kind {
		case KindFloat, KindInt:
			if !(p.Min < p.Max) && !(p.Min == p.Max) {
				return nil, fmt.Errorf("%w: %q [%g, %g]", ErrBadBounds, p.Name, p.Min, p.Max)
			}
			if p.Log && p.Min <= 0 {
				return nil, fmt.Errorf("%w: %q log scale requires Min > 0", ErrBadBounds, p.Name)
			}
			if p.Step < 0 {
				return nil, fmt.Errorf("%w: %q negative step", ErrBadBounds, p.Name)
			}
		case KindCategorical:
			if len(p.Values) == 0 {
				return nil, fmt.Errorf("%w: %q has no values", ErrBadBounds, p.Name)
			}
			seen := map[string]bool{}
			for _, v := range p.Values {
				if seen[v] {
					return nil, fmt.Errorf("%w: %q duplicate level %q", ErrBadBounds, p.Name, v)
				}
				seen[v] = true
			}
		case KindBool:
			// nothing to validate
		default:
			return nil, fmt.Errorf("space: %q has invalid kind %d", p.Name, p.Kind)
		}
		s.index[p.Name] = len(s.params)
		s.params = append(s.params, p)
	}
	// Validate conditional references (must point to earlier-declared params).
	for _, p := range s.params {
		if p.Parent == "" {
			continue
		}
		pi, ok := s.index[p.Parent]
		if !ok {
			return nil, fmt.Errorf("%w: %q parent %q", ErrUnknownParam, p.Name, p.Parent)
		}
		if s.params[pi].Name == p.Name {
			return nil, fmt.Errorf("space: %q is its own parent", p.Name)
		}
		if len(p.ParentValues) == 0 {
			return nil, fmt.Errorf("space: %q conditional without parent values", p.Name)
		}
	}
	return s, nil
}

// MustNew is New but panics on error; intended for static space literals.
func MustNew(params ...Param) *Space {
	s, err := New(params...)
	if err != nil {
		panic(err)
	}
	return s
}

// WithConstraints returns a copy of the space with the constraints appended.
func (s *Space) WithConstraints(cs ...Constraint) *Space {
	out := &Space{params: s.params, index: s.index}
	out.constraints = append(append([]Constraint(nil), s.constraints...), cs...)
	return out
}

// Params returns the parameters in declaration order. The slice must not be
// modified.
func (s *Space) Params() []Param { return s.params }

// Constraints returns the registered constraints.
func (s *Space) Constraints() []Constraint { return s.constraints }

// Dim returns the number of parameters (the unit-cube dimensionality).
func (s *Space) Dim() int { return len(s.params) }

// Param returns the named parameter and whether it exists.
func (s *Space) Param(name string) (Param, bool) {
	i, ok := s.index[name]
	if !ok {
		return Param{}, false
	}
	return s.params[i], true
}

// Default returns the configuration of all defaults.
func (s *Space) Default() Config {
	cfg := make(Config, len(s.params))
	for _, p := range s.params {
		cfg[p.Name] = p.defaultValue()
	}
	return cfg
}

func (p Param) defaultValue() any {
	if p.Def != nil {
		switch p.Kind {
		case KindFloat:
			switch v := p.Def.(type) {
			case float64:
				return v
			case int:
				return float64(v)
			case int64:
				return float64(v)
			}
		case KindInt:
			switch v := p.Def.(type) {
			case int64:
				return v
			case int:
				return int64(v)
			case float64:
				return int64(math.Round(v))
			}
		case KindCategorical:
			if v, ok := p.Def.(string); ok {
				return v
			}
		case KindBool:
			if v, ok := p.Def.(bool); ok {
				return v
			}
		}
	}
	// Fallbacks.
	switch p.Kind {
	case KindFloat:
		return (p.Min + p.Max) / 2
	case KindInt:
		return int64(math.Round((p.Min + p.Max) / 2))
	case KindCategorical:
		return p.Values[0]
	default:
		return false
	}
}

// Active reports whether the named parameter is active under cfg, following
// the conditional chain to the root.
func (s *Space) Active(cfg Config, name string) bool {
	i, ok := s.index[name]
	if !ok {
		return false
	}
	p := s.params[i]
	for p.Parent != "" {
		pv := valueString(cfg[p.Parent])
		match := false
		for _, want := range p.ParentValues {
			if pv == want {
				match = true
				break
			}
		}
		if !match {
			return false
		}
		pi := s.index[p.Parent]
		p = s.params[pi]
	}
	return true
}

// Validate checks that cfg assigns an in-domain value to every parameter and
// satisfies all constraints. Inactive conditional parameters may hold any
// in-domain value (they are ignored by consumers).
func (s *Space) Validate(cfg Config) error {
	if err := s.validateValues(cfg); err != nil {
		return err
	}
	for _, c := range s.constraints {
		if !c.Check(cfg) {
			return fmt.Errorf("%w: %s", ErrConstraint, c.Name)
		}
	}
	return nil
}

// validateValues is Validate without the constraints.
func (s *Space) validateValues(cfg Config) error {
	for _, p := range s.params {
		v, ok := cfg[p.Name]
		if !ok {
			return fmt.Errorf("%w: missing %q", ErrBadValue, p.Name)
		}
		switch p.Kind {
		case KindFloat:
			f, ok := v.(float64)
			if !ok {
				return fmt.Errorf("%w: %q wants float64, got %T", ErrBadValue, p.Name, v)
			}
			if f < p.Min-1e-9 || f > p.Max+1e-9 {
				return fmt.Errorf("%w: %q = %g outside [%g, %g]", ErrBadValue, p.Name, f, p.Min, p.Max)
			}
		case KindInt:
			n, ok := v.(int64)
			if !ok {
				return fmt.Errorf("%w: %q wants int64, got %T", ErrBadValue, p.Name, v)
			}
			if float64(n) < p.Min || float64(n) > p.Max {
				return fmt.Errorf("%w: %q = %d outside [%g, %g]", ErrBadValue, p.Name, n, p.Min, p.Max)
			}
		case KindCategorical:
			sv, ok := v.(string)
			if !ok {
				return fmt.Errorf("%w: %q wants string, got %T", ErrBadValue, p.Name, v)
			}
			if p.levelIndex(sv) < 0 {
				return fmt.Errorf("%w: %q = %q not in %v", ErrBadValue, p.Name, sv, p.Values)
			}
		case KindBool:
			if _, ok := v.(bool); !ok {
				return fmt.Errorf("%w: %q wants bool, got %T", ErrBadValue, p.Name, v)
			}
		}
	}
	return nil
}

// Normalize types an untyped JSON config object against the space: every
// key must name a known parameter, every value must coerce to the
// parameter's kind, and the result must hold an in-domain value for every
// parameter. Constraints are not checked: a configuration that violates
// one is still a well-formed configuration (a trial may have run it).
func (s *Space) Normalize(raw map[string]any) (Config, error) {
	if len(raw) == 0 {
		return nil, errors.New("config is empty")
	}
	cfg := make(Config, len(raw))
	for name, v := range raw {
		p, ok := s.Param(name)
		if !ok {
			return nil, fmt.Errorf("unknown knob %q", name)
		}
		tv, err := p.Coerce(v)
		if err != nil {
			return nil, fmt.Errorf("knob %q: %w", name, err)
		}
		cfg[name] = tv
	}
	if err := s.validateValues(cfg); err != nil {
		return nil, err
	}
	return cfg, nil
}

// Coerce converts one untyped JSON value to the parameter's typed Config
// representation (float64, int64, string, or bool).
func (p Param) Coerce(v any) (any, error) {
	switch p.Kind {
	case KindFloat:
		f, ok := asFloat(v)
		if !ok {
			return nil, fmt.Errorf("want a number, got %T", v)
		}
		return f, nil
	case KindInt:
		f, ok := asFloat(v)
		if !ok || f != math.Trunc(f) {
			return nil, fmt.Errorf("want an integer, got %v", v)
		}
		return int64(f), nil
	case KindCategorical:
		s, ok := v.(string)
		if !ok {
			return nil, fmt.Errorf("want a string, got %T", v)
		}
		return s, nil
	case KindBool:
		b, ok := v.(bool)
		if !ok {
			return nil, fmt.Errorf("want a bool, got %T", v)
		}
		return b, nil
	}
	return nil, fmt.Errorf("unknown kind %v", p.Kind)
}

func asFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int64:
		return float64(x), true
	case int:
		return float64(x), true
	}
	return 0, false
}

func (p Param) levelIndex(v string) int {
	for i, lv := range p.Values {
		if lv == v {
			return i
		}
	}
	return -1
}

// sampleTries bounds rejection sampling against constraints.
const sampleTries = 256

// Sample draws a uniform random configuration (log-uniform for log params).
// If constraints are present it rejection-samples up to a bounded number of
// tries and returns the last draw even if invalid — callers that require
// validity should use SampleValid.
func (s *Space) Sample(rng *rand.Rand) Config {
	cfg, _ := s.sample(rng)
	return cfg
}

// SampleValid is Sample but returns ErrConstraint if no valid configuration
// was found within the internal try budget.
func (s *Space) SampleValid(rng *rand.Rand) (Config, error) {
	cfg, ok := s.sample(rng)
	if !ok {
		return cfg, fmt.Errorf("%w: no valid sample in %d tries", ErrConstraint, sampleTries)
	}
	return cfg, nil
}

func (s *Space) sample(rng *rand.Rand) (Config, bool) {
	var cfg Config
	for try := 0; try < sampleTries; try++ {
		cfg = make(Config, len(s.params))
		for _, p := range s.params {
			cfg[p.Name] = p.sampleValue(rng)
		}
		if s.satisfies(cfg) {
			return cfg, true
		}
	}
	return cfg, false
}

func (s *Space) satisfies(cfg Config) bool {
	for _, c := range s.constraints {
		if !c.Check(cfg) {
			return false
		}
	}
	return true
}

func (p Param) sampleValue(rng *rand.Rand) any {
	switch p.Kind {
	case KindFloat:
		return p.fromUnit(rng.Float64())
	case KindInt:
		return int64(math.Round(p.fromUnitNumeric(rng.Float64())))
	case KindCategorical:
		return p.Values[rng.Intn(len(p.Values))]
	default:
		return rng.Intn(2) == 1
	}
}

// SampleN draws n configurations.
func (s *Space) SampleN(rng *rand.Rand, n int) []Config {
	out := make([]Config, n)
	for i := range out {
		out[i] = s.Sample(rng)
	}
	return out
}

// fromUnit maps u in [0,1] to the parameter's typed value.
func (p Param) fromUnit(u float64) any {
	switch p.Kind {
	case KindFloat:
		return p.quantize(p.fromUnitNumeric(u))
	case KindInt:
		return int64(math.Round(p.fromUnitNumeric(u)))
	case KindCategorical:
		i := int(u * float64(len(p.Values)))
		if i >= len(p.Values) {
			i = len(p.Values) - 1
		}
		if i < 0 {
			i = 0
		}
		return p.Values[i]
	default:
		return u >= 0.5
	}
}

func (p Param) fromUnitNumeric(u float64) float64 {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	if p.Log {
		lo, hi := math.Log(p.Min), math.Log(p.Max)
		return math.Exp(lo + u*(hi-lo))
	}
	return p.Min + u*(p.Max-p.Min)
}

// toUnit maps a typed value to [0,1].
func (p Param) toUnit(v any) float64 {
	switch p.Kind {
	case KindFloat, KindInt:
		var f float64
		switch x := v.(type) {
		case float64:
			f = x
		case int64:
			f = float64(x)
		case int:
			f = float64(x)
		default:
			f = p.Min
		}
		if p.Max == p.Min {
			return 0
		}
		if p.Log {
			if f < p.Min {
				f = p.Min
			}
			return (math.Log(f) - math.Log(p.Min)) / (math.Log(p.Max) - math.Log(p.Min))
		}
		return (f - p.Min) / (p.Max - p.Min)
	case KindCategorical:
		sv, _ := v.(string)
		i := p.levelIndex(sv)
		if i < 0 {
			i = 0
		}
		if len(p.Values) == 1 {
			return 0
		}
		return float64(i) / float64(len(p.Values)-1)
	default:
		if b, _ := v.(bool); b {
			return 1
		}
		return 0
	}
}

func (p Param) quantize(f float64) float64 {
	if p.Step > 0 {
		f = p.Min + math.Round((f-p.Min)/p.Step)*p.Step
	}
	if f < p.Min {
		f = p.Min
	}
	if f > p.Max {
		f = p.Max
	}
	return f
}

// Encode maps cfg to the unit cube [0,1]^Dim, one dimension per parameter
// in declaration order. Inactive conditional parameters encode as their
// default so that surrogates see a consistent representation.
func (s *Space) Encode(cfg Config) []float64 {
	x := make([]float64, len(s.params))
	s.EncodeInto(cfg, x)
	return x
}

// EncodeInto is Encode writing into x, which must have length Dim. For
// spaces without conditional parameters a warm call performs zero heap
// allocations (conditionals box their default value when inactive), letting
// the acquisition search re-encode thousands of candidates into one buffer.
//
//autolint:hotpath
func (s *Space) EncodeInto(cfg Config, x []float64) {
	if len(x) != len(s.params) {
		panic(fmt.Sprintf("space: encode into %d dims, want %d", len(x), len(s.params)))
	}
	for i := range s.params {
		p := &s.params[i]
		v := cfg[p.Name]
		if p.Parent != "" && !s.Active(cfg, p.Name) {
			v = p.defaultValue()
		}
		x[i] = clamp01(p.toUnit(v))
	}
}

// Decode maps a unit-cube point back to a typed configuration, clipping and
// quantizing as needed. It is total: any x (even outside [0,1]) decodes.
func (s *Space) Decode(x []float64) Config {
	cfg := make(Config, len(s.params))
	for i, p := range s.params {
		u := 0.0
		if i < len(x) {
			u = clamp01(x[i])
		}
		cfg[p.Name] = p.fromUnit(u)
	}
	return cfg
}

func clamp01(u float64) float64 {
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// OneHotDim returns the dimensionality of the one-hot encoding: one
// dimension per numeric/bool parameter and Levels() per categorical.
func (s *Space) OneHotDim() int {
	d := 0
	for _, p := range s.params {
		if p.Kind == KindCategorical {
			d += len(p.Values)
		} else {
			d++
		}
	}
	return d
}

// EncodeOneHot maps cfg to a vector where numeric and bool parameters take
// one [0,1] dimension and categoricals expand to indicator dimensions.
func (s *Space) EncodeOneHot(cfg Config) []float64 {
	x := make([]float64, s.OneHotDim())
	s.EncodeOneHotInto(cfg, x)
	return x
}

// EncodeOneHotInto is EncodeOneHot writing into x, which must have length
// OneHotDim. Allocation behavior matches EncodeInto.
//
//autolint:hotpath
func (s *Space) EncodeOneHotInto(cfg Config, x []float64) {
	if len(x) != s.OneHotDim() {
		panic(fmt.Sprintf("space: one-hot encode into %d dims, want %d", len(x), s.OneHotDim()))
	}
	off := 0
	for i := range s.params {
		p := &s.params[i]
		v := cfg[p.Name]
		if p.Parent != "" && !s.Active(cfg, p.Name) {
			v = p.defaultValue()
		}
		if p.Kind == KindCategorical {
			sv, _ := v.(string)
			idx := p.levelIndex(sv)
			for j := range p.Values {
				if j == idx {
					x[off+j] = 1
				} else {
					x[off+j] = 0
				}
			}
			off += len(p.Values)
		} else {
			x[off] = clamp01(p.toUnit(v))
			off++
		}
	}
}

// Grid returns the cartesian-product grid with `levels` points per numeric
// parameter (all levels for categoricals and bools). The total size is the
// product over parameters; callers are responsible for keeping it sane.
func (s *Space) Grid(levels int) []Config {
	if levels < 1 {
		levels = 1
	}
	perParam := make([][]any, len(s.params))
	for i, p := range s.params {
		perParam[i] = p.gridValues(levels)
	}
	out := []Config{{}}
	for i, p := range s.params {
		next := make([]Config, 0, len(out)*len(perParam[i]))
		for _, base := range out {
			for _, v := range perParam[i] {
				c := base.Clone()
				c[p.Name] = v
				next = append(next, c)
			}
		}
		out = next
	}
	if len(s.constraints) > 0 {
		valid := out[:0]
		for _, c := range out {
			if s.satisfies(c) {
				valid = append(valid, c)
			}
		}
		out = valid
	}
	return out
}

// GridBudget returns a grid of at most roughly `budget` points by choosing
// per-numeric-parameter levels = floor(budget^(1/d)) (minimum 2 when the
// budget allows).
func (s *Space) GridBudget(budget int) []Config {
	d := 0
	for _, p := range s.params {
		if p.IsNumeric() {
			d++
		}
	}
	levels := 1
	if d > 0 && budget > 1 {
		levels = int(math.Floor(math.Pow(float64(budget), 1/float64(d))))
		if levels < 1 {
			levels = 1
		}
	}
	return s.Grid(levels)
}

func (p Param) gridValues(levels int) []any {
	switch p.Kind {
	case KindCategorical:
		out := make([]any, len(p.Values))
		for i, v := range p.Values {
			out[i] = v
		}
		return out
	case KindBool:
		return []any{false, true}
	default:
		if levels == 1 {
			return []any{p.fromUnit(0.5)}
		}
		out := make([]any, 0, levels)
		seen := map[string]bool{}
		for i := 0; i < levels; i++ {
			v := p.fromUnit(float64(i) / float64(levels-1))
			k := valueString(v)
			if !seen[k] {
				seen[k] = true
				out = append(out, v)
			}
		}
		return out
	}
}

// Neighbor perturbs cfg: each numeric parameter takes a Gaussian step of
// the given scale (in unit-cube units), and each categorical/bool resamples
// with probability scale. Used by simulated annealing and local search.
func (s *Space) Neighbor(cfg Config, scale float64, rng *rand.Rand) Config {
	out := cfg.Clone()
	for _, p := range s.params {
		switch p.Kind {
		case KindFloat, KindInt:
			u := p.toUnit(cfg[p.Name])
			u += rng.NormFloat64() * scale
			out[p.Name] = p.fromUnit(clamp01(u))
		case KindCategorical:
			if rng.Float64() < scale {
				out[p.Name] = p.Values[rng.Intn(len(p.Values))]
			}
		case KindBool:
			if rng.Float64() < scale {
				out[p.Name] = !cfg.Bool(p.Name)
			}
		}
	}
	return out
}

// Clip returns cfg with every numeric value clipped into bounds and
// quantized, categorical values snapped to a valid level, and missing
// parameters filled with defaults.
func (s *Space) Clip(cfg Config) Config {
	out := make(Config, len(s.params))
	for _, p := range s.params {
		v, ok := cfg[p.Name]
		if !ok {
			out[p.Name] = p.defaultValue()
			continue
		}
		switch p.Kind {
		case KindFloat:
			f := cfg.Float(p.Name)
			out[p.Name] = p.quantize(f)
		case KindInt:
			f := math.Round(cfg.Float(p.Name))
			if f < p.Min {
				f = p.Min
			}
			if f > p.Max {
				f = p.Max
			}
			out[p.Name] = int64(f)
		case KindCategorical:
			sv, _ := v.(string)
			if p.levelIndex(sv) < 0 {
				out[p.Name] = p.Values[0]
			} else {
				out[p.Name] = sv
			}
		case KindBool:
			b, _ := v.(bool)
			out[p.Name] = b
		}
	}
	return out
}

// Names returns the parameter names in declaration order.
func (s *Space) Names() []string {
	out := make([]string, len(s.params))
	for i, p := range s.params {
		out[i] = p.Name
	}
	return out
}

// Subspace returns a new Space containing only the named parameters (in the
// given order), dropping constraints that reference removed parameters is
// the caller's responsibility — constraints are not carried over.
func (s *Space) Subspace(names ...string) (*Space, error) {
	params := make([]Param, 0, len(names))
	keep := map[string]bool{}
	for _, n := range names {
		keep[n] = true
	}
	for _, n := range names {
		i, ok := s.index[n]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownParam, n)
		}
		p := s.params[i]
		if p.Parent != "" && !keep[p.Parent] {
			p.Parent, p.ParentValues = "", nil // orphaned conditional becomes unconditional
		}
		params = append(params, p)
	}
	return New(params...)
}
