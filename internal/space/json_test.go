package space

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

// FuzzConfigAppendJSON is the byte-identity contract of json.go, with
// encoding/json as the reference: over configs holding every value type
// AppendJSON accepts, it either produces json.Marshal's bytes or fails
// where json.Marshal fails (NaN, ±Inf). shape picks nil, empty, small, and
// more keys than the encoder's on-stack name buffer holds.
func FuzzConfigAppendJSON(f *testing.F) {
	for _, s := range []string{"policy", "", "<>&", `"\`, "\xff\xfe", "a b ", "tab\there", "caf\u00e9 \u2028", "\x7f"} {
		f.Add(s, s, 0.5, int64(7), true, uint8(2))
	}
	for _, x := range []float64{1e-7, 1e21, math.Copysign(0, -1), 1e-6, 999999999999999868928, 1.5e-9, -2.5e300, 5e-324, 100, math.NaN(), math.Inf(-1)} {
		f.Add("x", "lru", x, int64(math.MaxInt64), false, uint8(2))
	}
	f.Add("k", "v", 1.0, int64(math.MinInt64), true, uint8(0)) // nil config
	f.Add("k", "v", 1.0, int64(0), true, uint8(1))             // empty config
	f.Add("k", "v", 1.0, int64(-3), false, uint8(3))           // 24 keys

	f.Fuzz(func(t *testing.T, key, str string, x float64, n int64, b bool, shape uint8) {
		var cfg Config
		switch shape % 4 {
		case 1:
			cfg = Config{}
		case 2, 3:
			cfg = Config{key: str, str: x, "n": n, "i": int(n), "b": b}
			for i := 0; shape%4 == 3 && i < 20; i++ {
				cfg[fmt.Sprintf("%s%02d", key, i)] = x * float64(i)
			}
		}
		want, werr := json.Marshal(map[string]any(cfg))
		got, gerr := cfg.AppendJSON([]byte("prefix"))
		if (gerr != nil) != (werr != nil) {
			t.Fatalf("AppendJSON error %v, json.Marshal error %v", gerr, werr)
		}
		if gerr == nil && !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("AppendJSON\n got %s\nwant prefix%s", got, want)
		}
	})
}

// TestAppendJSONRejectsUnknownTypes: values outside Config's documented
// types are an error rather than a guess at what encoding/json would do.
func TestAppendJSONRejectsUnknownTypes(t *testing.T) {
	for _, v := range []any{nil, float32(1), []string{"a"}, map[string]any{}} {
		if out, err := (Config{"k": v}).AppendJSON(nil); err == nil {
			t.Errorf("value %T: encoded as %s, want an error", v, out)
		}
	}
}
