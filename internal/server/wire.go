package server

import (
	"errors"
	"fmt"
	"regexp"
	"strconv"

	"autotune/internal/space"
)

// wire.go is the JSON wire format of the tuning service: the study spec a
// client posts, the suggest/observe/best/pareto payloads, and the
// normalization that turns untyped JSON values back into the typed
// space.Config the optimizers expect (JSON has only float64 numbers; the
// space says which knobs are integers).

// ParamSpec is the serializable form of one space.Param. Kind is one of
// "float", "int", "categorical", "bool".
type ParamSpec struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Min/Max bound numeric parameters (inclusive; integral for "int").
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`
	// Log requests log-scale encoding (numeric kinds, Min > 0).
	Log bool `json:"log,omitempty"`
	// Step quantizes float parameters to multiples of Step above Min.
	Step float64 `json:"step,omitempty"`
	// Values lists categorical levels in declaration order.
	Values []string `json:"values,omitempty"`
	// Default overrides the kind's default value (numbers arrive as JSON
	// float64 and are coerced per kind).
	Default any `json:"default,omitempty"`
	// Parent and ParentValues make the parameter conditional.
	Parent       string   `json:"parent,omitempty"`
	ParentValues []string `json:"parent_values,omitempty"`
}

// param converts the spec to a space.Param.
func (ps ParamSpec) param() (space.Param, error) {
	var p space.Param
	switch ps.Kind {
	case "float":
		p = space.Float(ps.Name, ps.Min, ps.Max)
		if ps.Step > 0 {
			p = p.WithStep(ps.Step)
		}
	case "int":
		p = space.Int(ps.Name, int64(ps.Min), int64(ps.Max))
	case "categorical":
		p = space.Categorical(ps.Name, ps.Values...)
	case "bool":
		p = space.Bool(ps.Name)
	default:
		return p, fmt.Errorf("param %q: unknown kind %q (want float, int, categorical, or bool)", ps.Name, ps.Kind)
	}
	if ps.Log {
		p = p.WithLog()
	}
	if ps.Default != nil {
		def, err := p.Coerce(ps.Default)
		if err != nil {
			return p, fmt.Errorf("param %q default: %w", ps.Name, err)
		}
		p = p.WithDefault(def)
	}
	if ps.Parent != "" {
		p = p.WithParent(ps.Parent, ps.ParentValues...)
	}
	return p, nil
}

// SpecOf converts one space.Param to its wire form (constraints, which
// are Go closures, do not survive the trip and must be re-imposed
// server-side if needed).
func SpecOf(p space.Param) ParamSpec {
	ps := ParamSpec{
		Name: p.Name, Min: p.Min, Max: p.Max, Log: p.Log, Step: p.Step,
		Values: p.Values, Parent: p.Parent, ParentValues: p.ParentValues,
	}
	switch p.Kind {
	case space.KindFloat:
		ps.Kind = "float"
	case space.KindInt:
		ps.Kind = "int"
	case space.KindCategorical:
		ps.Kind = "categorical"
		ps.Min, ps.Max = 0, 0
	case space.KindBool:
		ps.Kind = "bool"
		ps.Min, ps.Max = 0, 0
	}
	ps.Default = p.Def
	return ps
}

// SpecsOf converts a whole space to wire form.
func SpecsOf(sp *space.Space) []ParamSpec {
	params := sp.Params()
	out := make([]ParamSpec, len(params))
	for i, p := range params {
		out[i] = SpecOf(p)
	}
	return out
}

// buildSpace validates a spec list into a Space.
func buildSpace(specs []ParamSpec) (*space.Space, error) {
	if len(specs) == 0 {
		return nil, errors.New("study space is empty")
	}
	params := make([]space.Param, len(specs))
	for i, ps := range specs {
		p, err := ps.param()
		if err != nil {
			return nil, err
		}
		params[i] = p
	}
	return space.New(params...)
}

// studyMeta is the durable study descriptor, persisted as record metaID
// (-1) in the study's log before the create is acknowledged. Recovery
// rebuilds the space and a freshly seeded optimizer from it, so a
// restarted study resumes suggesting as a pure function of (seed,
// replayed observations).
type studyMeta struct {
	Meta      int         `json:"meta"` // format version, currently 1
	Study     string      `json:"study"`
	Optimizer string      `json:"optimizer"`
	Seed      int64       `json:"seed"`
	Space     []ParamSpec `json:"space"`
}

// metaID is the reserved in-study record ID that holds studyMeta; trial
// records use IDs >= 0.
const metaID = -1

// studyNameRE bounds study names to filesystem- and URL-safe tokens.
var studyNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)

// StudySpec is what a client needs to create a study: the optimizer (any
// name NewOptimizer accepts; empty means "bo"), the deterministic seed,
// and the configuration space.
type StudySpec struct {
	Optimizer string      `json:"optimizer,omitempty"`
	Seed      int64       `json:"seed"`
	Space     []ParamSpec `json:"space"`
}

// createRequest is the POST /v1/studies body.
type createRequest struct {
	Study string `json:"study"`
	StudySpec
}

// createResponse acknowledges a create. Created is false when the study
// already existed with an identical spec (creation is idempotent);
// Trials reports observations already recovered from the store.
type createResponse struct {
	Study     string `json:"study"`
	Optimizer string `json:"optimizer"`
	Created   bool   `json:"created"`
	Trials    int    `json:"trials"`
}

// suggestRequest is the POST /v1/studies/{study}/suggest body; an empty
// body means Count = 1.
type suggestRequest struct {
	Count int `json:"count,omitempty"`
}

// SuggestedTrial is one proposed configuration with its trial ID. The ID
// is not durable until observed: trial IDs suggested but never observed
// before a crash are reassigned after restart, and the observe carries
// the config precisely so that the ack is self-contained.
type SuggestedTrial struct {
	Trial  int64          `json:"trial"`
	Config map[string]any `json:"config"`
}

// suggestResponse carries the proposed trials; Exhausted marks a finite
// strategy (grid) that has fewer configurations left than asked.
type suggestResponse struct {
	Study     string           `json:"study"`
	Trials    []SuggestedTrial `json:"trials"`
	Exhausted bool             `json:"exhausted,omitempty"`
}

// appendSuggestResponse appends the suggest body, byte for byte what
// json.NewEncoder(w).Encode(r) writes: the struct tags stay the format's
// definition, and TestSuggestResponseMatchesEncodingJSON holds it to them.
func appendSuggestResponse(dst []byte, r suggestResponse) ([]byte, error) {
	dst = append(dst, `{"study":`...)
	dst = append(space.AppendJSONString(dst, r.Study), `,"trials":`...)
	if r.Trials == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, t := range r.Trials {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(append(dst, `{"trial":`...), t.Trial, 10)
			cfg, err := space.Config(t.Config).AppendJSON(append(dst, `,"config":`...))
			if err != nil {
				return dst, fmt.Errorf("trial %d: %w", t.Trial, err)
			}
			dst = append(cfg, '}')
		}
		dst = append(dst, ']')
	}
	if r.Exhausted {
		dst = append(dst, `,"exhausted":true`...)
	}
	return append(dst, "}\n"...), nil
}

// Observation is one measured trial reported back to the service.
type Observation struct {
	Trial       int64              `json:"trial"`
	Config      map[string]any     `json:"config"`
	Value       float64            `json:"value"`
	CostSeconds float64            `json:"cost_seconds,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// observeRequest is the POST /v1/studies/{study}/observe body: either a
// single inline Observation or a batch (the batch is durable under one
// fsync barrier).
type observeRequest struct {
	Observation
	Observations []Observation `json:"observations,omitempty"`
}

// observeResponse acknowledges an observe. Acked counts observations
// made durable by this request; Duplicates counts (study, trial) pairs
// that were already acked — retries are safe and change nothing.
type observeResponse struct {
	Study      string `json:"study"`
	Acked      int    `json:"acked"`
	Duplicates int    `json:"duplicates"`
}

// BestResult is the incumbent of one study.
type BestResult struct {
	Study    string         `json:"study"`
	Trial    int64          `json:"trial"`
	Config   map[string]any `json:"config,omitempty"`
	Value    float64        `json:"value"`
	Found    bool           `json:"found"`
	Observed int            `json:"observed"`
}

// ParetoPoint is one non-dominated trial.
type ParetoPoint struct {
	Trial      int64          `json:"trial"`
	Config     map[string]any `json:"config"`
	Objectives []float64      `json:"objectives"`
}

// ParetoResult is the non-dominated front of a study over the named
// objectives (all minimized): "value", "cost_seconds", or any metric
// name the observations carried.
type ParetoResult struct {
	Study      string        `json:"study"`
	Objectives []string      `json:"objectives"`
	Front      []ParetoPoint `json:"front"`
}

// StudyInfo is one row of the study listing.
type StudyInfo struct {
	Study     string `json:"study"`
	Optimizer string `json:"optimizer,omitempty"`
	Trials    int    `json:"trials"`
	ReadOnly  bool   `json:"read_only,omitempty"`
}

// listResponse is the GET /v1/studies body.
type listResponse struct {
	Studies []StudyInfo `json:"studies"`
}

// errorResponse is the JSON error envelope every non-2xx response carries.
type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}
