package space

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
)

// AppendJSON appends c to dst as a JSON object, byte for byte what
// json.Marshal(map[string]any(c)) writes but without its reflective map
// walk; FuzzConfigAppendJSON holds the two together. Values must be float64,
// int64, int, string, or bool: a NaN or infinite float is an error.
func (c Config) AppendJSON(dst []byte) ([]byte, error) {
	if c == nil {
		return append(dst, "null"...), nil
	}
	names := make([]string, 0, 16) // on the stack for any real space
	for k := range c {
		names = append(names, k)
	}
	sort.Strings(names)
	dst = append(dst, '{')
	for i, k := range names {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(AppendJSONString(dst, k), ':')
		switch v := c[k].(type) {
		case float64:
			// encoding/json's format: 'e' only below 1e-6 or from 1e21, "e-07" cut to "e-7".
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return dst, fmt.Errorf("space: encode %q: unsupported value %v", k, v)
			}
			abs, format := math.Abs(v), byte('f')
			if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
				format = 'e'
			}
			dst = strconv.AppendFloat(dst, v, format, -1, 64)
			if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
				dst = append(dst[:n-2], dst[n-1])
			}
		case int64:
			dst = strconv.AppendInt(dst, v, 10)
		case int:
			dst = strconv.AppendInt(dst, int64(v), 10)
		case string:
			dst = AppendJSONString(dst, v)
		case bool:
			dst = strconv.AppendBool(dst, v)
		default:
			return dst, fmt.Errorf("space: encode %q: unsupported type %T", k, v)
		}
	}
	return append(dst, '}'), nil
}

// AppendJSONString appends s as a JSON string: printable ASCII is copied
// between quotes, and a string holding anything encoding/json escapes goes
// through json.Marshal, so the escape table lives in one place.
func AppendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b < ' ' || b > '~' || b == '"' || b == '\\' || b == '<' || b == '>' || b == '&' {
			quoted, _ := json.Marshal(s) // cannot fail: invalid UTF-8 becomes U+FFFD
			return append(dst, quoted...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}
