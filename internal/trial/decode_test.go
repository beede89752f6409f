package trial

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"autotune/internal/space"
)

// TestDecodeTrialRecordMatchesEncodingJSON is the fast decoder's
// contract: for every payload it accepts, the result must be identical
// to encoding/json's; for every payload encoding/json accepts but the
// fast path declines, the fallback must still produce the right record.
func TestDecodeTrialRecordMatchesEncodingJSON(t *testing.T) {
	records := []TrialRecord{
		{},
		{ID: 0, Value: 0.25, CostSeconds: 1.5},
		{ID: 7, Config: space.Config{"cache_mb": 512.0, "workers": 8.0},
			Value: 0.123456789, CostSeconds: 2.25, Fidelity: 0.5},
		{ID: 12, Config: space.Config{"engine": "lsm", "compress": true, "x": -3.5e-7},
			Value: -1, CostSeconds: 0, Crashed: true, Aborted: true,
			TimedOut: true, Hedged: true, CacheHit: true},
		{ID: 3, Config: space.Config{}, Value: math.MaxFloat64, Fidelity: 1},
		{ID: 99, Config: space.Config{"note": "utf8 ✓ köttbullar"}, Value: 1e-300},
	}
	for _, want := range records {
		data, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		var fast TrialRecord
		if !decodeTrialRecord(data, &fast) {
			t.Fatalf("fast decoder declined marshaled record %s", data)
		}
		var slow TrialRecord
		if err := json.Unmarshal(data, &slow); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("fast != slow for %s:\nfast %+v\nslow %+v", data, fast, slow)
		}
	}
}

// TestDecodeTrialRecordDeclinesOddShapes: inputs outside the marshaled
// shape must be declined (fallback handles them), never mis-parsed.
func TestDecodeTrialRecordDeclinesOddShapes(t *testing.T) {
	declined := []string{
		``,
		`{`,
		`[]`,
		`{"id":1,"unknown":2}`,
		`{"id":null}`,
		`{"id":1.5}`,
		`{"config":{"a":[1]}}`,
		`{"config":{"a":{"b":1}}}`,
		`{"config":{"a":null}}`,
		`{"value":"oops"}`,
		`{"crashed":1}`,
		`{"id":1} trailing`,
		`{"config":{"s":"esc\"aped"}}`,
		"{\"config\":{\"s\":\"ctrl\x01char\"}}",
		`{"id":1,}`,
		`{"id":--3}`,
	}
	for _, in := range declined {
		var rec TrialRecord
		if decodeTrialRecord([]byte(in), &rec) {
			t.Fatalf("fast decoder accepted %q as %+v", in, rec)
		}
	}

	// The escaped-string case must still round-trip through the fallback:
	// decodeStoreRecords on such a payload yields encoding/json's answer.
	want := TrialRecord{ID: 4, Config: space.Config{"s": `a"b`}, Value: 1}
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var rec TrialRecord
	if decodeTrialRecord(data, &rec) {
		t.Fatalf("escaped string should decline fast path: %s", data)
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, want) {
		t.Fatalf("fallback mismatch: %+v != %+v", rec, want)
	}
}

// TestDecodeTrialRecordWhitespace: the decoder tolerates the whitespace
// encoding/json tolerates at the positions Marshal can never emit it,
// since journal files may be touched by hand.
func TestDecodeTrialRecordWhitespace(t *testing.T) {
	in := " { \"id\" : 5 , \"config\" : { \"a\" : 1 } , \"value\" : 2 } "
	var fast, slow TrialRecord
	if !decodeTrialRecord([]byte(in), &fast) {
		t.Fatalf("declined %q", in)
	}
	if err := json.Unmarshal([]byte(in), &slow); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fast, slow) {
		t.Fatalf("fast %+v != slow %+v", fast, slow)
	}
}

// FuzzDecodeRecord is DecodeRecord's contract on arbitrary bytes, with
// encoding/json as the reference: it returns the record json.Unmarshal
// returns, or fails where json.Unmarshal fails. Every replay — the library
// loop's and the daemon's — reads the store through this one decoder. The
// corpus is the shapes the tests above pin.
func FuzzDecodeRecord(f *testing.F) {
	for _, rec := range []TrialRecord{
		{},
		{ID: 7, Config: space.Config{"cache_mb": 512.0, "workers": 8.0}, Value: 0.123456789, CostSeconds: 2.25, Fidelity: 0.5},
		{ID: 12, Config: space.Config{"engine": "lsm", "compress": true, "x": -3.5e-7}, Value: -1,
			Crashed: true, Aborted: true, TimedOut: true, Hedged: true, CacheHit: true},
		{ID: 3, Config: space.Config{}, Value: math.MaxFloat64, Fidelity: 1, Metrics: map[string]float64{"p95_ms": 4.5}},
		{ID: 99, Config: space.Config{"note": "utf8 ✓ köttbullar", "s": `a"b`}, Value: 1e-300},
	} {
		data, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range []string{
		``, `{`, `[]`, `{"id":1,"unknown":2}`, `{"id":null}`, `{"id":1.5}`, `{"id":1e3}`, `{"id":1.0}`,
		`{"config":{"a":[1]}}`, `{"config":{"a":null}}`, `{"config":null,"metrics":null}`,
		`{"value":"oops"}`, `{"value":+1}`, `{"value":.5}`, `{"value":1.}`, `{"value":01}`, `{"value":1e999}`,
		`{"crashed":1}`, `{"id":1} trailing`, `{"id":1,}`, `{"id":--3}`,
		"{\"config\":{\"s\":\"ctrl\x01char\"}}", "{\"config\":{\"s\":\"bad\xffutf8\"}}",
		`{"config":{"a":1},"config":{"b":2}}`, `{"metrics":{"a":1},"metrics":{"b":2}}`,
		` { "id" : 5 , "config" : { "a" : 1 } , "value" : 2 } `,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want TrialRecord
		werr := json.Unmarshal(data, &want)
		got, gerr := DecodeRecord(data)
		if (gerr != nil) != (werr != nil) {
			t.Fatalf("DecodeRecord(%q) error %v, json.Unmarshal error %v", data, gerr, werr)
		}
		if gerr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeRecord(%q)\n got %+v\nwant %+v", data, got, want)
		}
	})
}
