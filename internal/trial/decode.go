package trial

import (
	"encoding/json"
	"fmt"
	"strconv"
	"unicode/utf8"
)

// EncodeRecord returns rec's durable bytes: the JSON payload every
// write-ahead path (StudyJournal, the tuning daemon) frames into the study
// store. It is exactly json.Marshal(rec) — logs written before this
// function existed decode unchanged and bytes per record do not move.
func EncodeRecord(rec TrialRecord) ([]byte, error) {
	data, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("trial: encode record %d: %w", rec.ID, err)
	}
	return data, nil
}

// DecodeRecord parses bytes written by EncodeRecord: the specialized
// parser first, encoding/json for any shape it declines, so results and
// error text are encoding/json's.
func DecodeRecord(data []byte) (TrialRecord, error) {
	var rec TrialRecord
	if decodeTrialRecord(data, &rec) {
		return rec, nil
	}
	rec = TrialRecord{} // a declined parse may have filled some fields
	err := json.Unmarshal(data, &rec)
	return rec, err
}

// decodeTrialRecord is the replay hot path: a specialized parser for the
// exact JSON shape json.Marshal(TrialRecord) produces, avoiding
// encoding/json's reflection cost (several microseconds per record, which
// dominates store replay on small machines). It is strictly conservative:
// on anything outside the expected shape — unknown keys, escaped strings,
// invalid UTF-8, nulls, nested structures, a repeated config or metrics
// key, a number strconv takes but JSON does not — it reports !ok and the
// caller falls back to encoding/json, so behavior (including error text
// for malformed input) is unchanged. When it does report ok, the result is
// identical to what encoding/json would have produced (FuzzDecodeRecord).
func decodeTrialRecord(data []byte, rec *TrialRecord) (ok bool) {
	p := recParser{buf: data}
	p.ws()
	if !p.eat('{') {
		return false
	}
	p.ws()
	if p.eat('}') {
		p.ws()
		return p.pos == len(p.buf)
	}
	for {
		key, ok := p.str()
		if !ok {
			return false
		}
		p.ws()
		if !p.eat(':') {
			return false
		}
		p.ws()
		switch key {
		case "id":
			start := p.pos
			if ok, integer := p.numLit(); !ok || !integer {
				return false
			}
			id, err := strconv.Atoi(string(p.buf[start:p.pos]))
			if err != nil {
				return false
			}
			rec.ID = id
		case "config":
			if p.null() {
				rec.Config = nil // json.Marshal of a nil Config
				break
			}
			if rec.Config != nil {
				return false // a repeated key: encoding/json merges the maps
			}
			cfg, ok := p.config()
			if !ok {
				return false
			}
			rec.Config = cfg
		case "value":
			if rec.Value, ok = p.num(); !ok {
				return false
			}
		case "cost_seconds":
			if rec.CostSeconds, ok = p.num(); !ok {
				return false
			}
		case "fidelity":
			if rec.Fidelity, ok = p.num(); !ok {
				return false
			}
		case "crashed":
			if rec.Crashed, ok = p.boolean(); !ok {
				return false
			}
		case "aborted":
			if rec.Aborted, ok = p.boolean(); !ok {
				return false
			}
		case "timed_out":
			if rec.TimedOut, ok = p.boolean(); !ok {
				return false
			}
		case "hedged":
			if rec.Hedged, ok = p.boolean(); !ok {
				return false
			}
		case "cache_hit":
			if rec.CacheHit, ok = p.boolean(); !ok {
				return false
			}
		case "metrics":
			if p.null() {
				rec.Metrics = nil
				break
			}
			if rec.Metrics != nil {
				return false // repeated, as for config
			}
			m, ok := p.metrics()
			if !ok {
				return false
			}
			rec.Metrics = m
		default:
			return false
		}
		p.ws()
		if p.eat(',') {
			p.ws()
			continue
		}
		if !p.eat('}') {
			return false
		}
		p.ws()
		return p.pos == len(p.buf)
	}
}

// recParser is a minimal cursor over one JSON-encoded record.
type recParser struct {
	buf []byte
	pos int
}

func (p *recParser) ws() {
	for p.pos < len(p.buf) {
		switch p.buf[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *recParser) eat(c byte) bool {
	if p.pos < len(p.buf) && p.buf[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// str parses a string literal with no escapes; a backslash anywhere
// triggers the encoding/json fallback rather than escape handling here, and
// so does invalid UTF-8, which encoding/json replaces with U+FFFD.
func (p *recParser) str() (string, bool) {
	if !p.eat('"') {
		return "", false
	}
	start := p.pos
	ascii := true
	for p.pos < len(p.buf) {
		switch c := p.buf[p.pos]; {
		case c == '"':
			raw := p.buf[start:p.pos]
			p.pos++
			return string(raw), ascii || utf8.Valid(raw)
		case c == '\\':
			return "", false
		case c < 0x20:
			// Raw control characters are invalid JSON; let
			// encoding/json reject them so corruption still errors.
			return "", false
		default:
			ascii = ascii && c < utf8.RuneSelf
			p.pos++
		}
	}
	return "", false
}

// digits consumes a run of decimal digits and reports whether there was one.
func (p *recParser) digits() bool {
	start := p.pos
	for p.pos < len(p.buf) && p.buf[p.pos] >= '0' && p.buf[p.pos] <= '9' {
		p.pos++
	}
	return p.pos > start
}

// numLit consumes a number in JSON's grammar — stricter than strconv, which
// also takes "+1", ".5", "1." and "01" — and reports whether it is an
// integer literal, the only form encoding/json puts in an int field.
func (p *recParser) numLit() (ok, integer bool) {
	p.eat('-')
	if !p.eat('0') && !p.digits() {
		return false, false
	}
	integer = true
	if p.eat('.') {
		integer = false
		if !p.digits() {
			return false, false
		}
	}
	if p.eat('e') || p.eat('E') {
		integer = false
		if !p.eat('+') {
			p.eat('-')
		}
		if !p.digits() {
			return false, false
		}
	}
	return true, integer
}

func (p *recParser) num() (float64, bool) {
	start := p.pos
	if ok, _ := p.numLit(); !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(p.buf[start:p.pos]), 64)
	return f, err == nil
}

func (p *recParser) null() bool {
	if len(p.buf)-p.pos >= 4 && string(p.buf[p.pos:p.pos+4]) == "null" {
		p.pos += 4
		return true
	}
	return false
}

func (p *recParser) boolean() (bool, bool) {
	if len(p.buf)-p.pos >= 4 && string(p.buf[p.pos:p.pos+4]) == "true" {
		p.pos += 4
		return true, true
	}
	if len(p.buf)-p.pos >= 5 && string(p.buf[p.pos:p.pos+5]) == "false" {
		p.pos += 5
		return false, true
	}
	return false, false
}

// metrics parses the {"name": number, ...} object; any non-numeric value
// triggers the encoding/json fallback.
func (p *recParser) metrics() (map[string]float64, bool) {
	if !p.eat('{') {
		return nil, false
	}
	m := map[string]float64{}
	p.ws()
	if p.eat('}') {
		return m, true
	}
	for {
		key, ok := p.str()
		if !ok {
			return nil, false
		}
		p.ws()
		if !p.eat(':') {
			return nil, false
		}
		p.ws()
		f, ok := p.num()
		if !ok {
			return nil, false
		}
		m[key] = f
		p.ws()
		if p.eat(',') {
			p.ws()
			continue
		}
		return m, p.eat('}')
	}
}

// config parses the {"knob": value, ...} object; values may be numbers,
// escape-free strings, or booleans — the scalar types space.Config holds.
func (p *recParser) config() (map[string]any, bool) {
	if !p.eat('{') {
		return nil, false
	}
	cfg := map[string]any{}
	p.ws()
	if p.eat('}') {
		return cfg, true
	}
	for {
		key, ok := p.str()
		if !ok {
			return nil, false
		}
		p.ws()
		if !p.eat(':') {
			return nil, false
		}
		p.ws()
		if p.pos >= len(p.buf) {
			return nil, false
		}
		switch c := p.buf[p.pos]; {
		case c == '"':
			s, ok := p.str()
			if !ok {
				return nil, false
			}
			cfg[key] = s
		case c == 't', c == 'f':
			b, ok := p.boolean()
			if !ok {
				return nil, false
			}
			cfg[key] = b
		default:
			f, ok := p.num()
			if !ok {
				return nil, false
			}
			cfg[key] = f
		}
		p.ws()
		if p.eat(',') {
			p.ws()
			continue
		}
		return cfg, p.eat('}')
	}
}
