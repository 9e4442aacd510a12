package eventlog

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"
	"unicode/utf8"
)

// AppendJSON appends the event as one flat JSON object — the JSON-lines
// wire format. Fixed keys come first (seq, ts, level, component, event,
// then job, pid, and device when attributed), followed by the event's
// fields in emission order, so `jq 'select(.job == 12)'` style pipelines
// see every attribute at the top level.
func (e Event) AppendJSON(buf []byte) []byte {
	buf = append(buf, '{')
	buf = appendKey(buf, "seq", true)
	buf = strconv.AppendInt(buf, e.Seq, 10)
	buf = appendKey(buf, "ts", false)
	buf = appendString(buf, e.Time.UTC().Format(time.RFC3339Nano))
	buf = appendKey(buf, "level", false)
	buf = appendString(buf, e.Level.String())
	buf = appendKey(buf, "component", false)
	buf = appendString(buf, e.Component)
	buf = appendKey(buf, "event", false)
	buf = appendString(buf, e.Name)
	if e.Job != 0 {
		buf = appendKey(buf, "job", false)
		buf = strconv.AppendInt(buf, e.Job, 10)
	}
	if e.PID != 0 {
		buf = appendKey(buf, "pid", false)
		buf = strconv.AppendInt(buf, int64(e.PID), 10)
	}
	if e.Device != "" {
		buf = appendKey(buf, "device", false)
		buf = appendString(buf, e.Device)
	}
	for _, f := range e.Fields {
		buf = appendKey(buf, f.Key, false)
		buf = appendValue(buf, f.Value)
	}
	return append(buf, '}')
}

// MarshalJSON implements json.Marshaler with the flat JSON-lines shape, so
// /events.json and the file sink render identically.
func (e Event) MarshalJSON() ([]byte, error) {
	return e.AppendJSON(make([]byte, 0, 256)), nil
}

func appendKey(buf []byte, key string, first bool) []byte {
	if !first {
		buf = append(buf, ',')
	}
	buf = appendString(buf, key)
	return append(buf, ':')
}

// appendValue renders a field value. The supported kinds cover everything
// the instrumented layers emit; unknown types degrade to their fmt "%v"
// string rather than failing.
func appendValue(buf []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(buf, "null"...)
	case string:
		return appendString(buf, x)
	case bool:
		return strconv.AppendBool(buf, x)
	case int:
		return strconv.AppendInt(buf, int64(x), 10)
	case int8:
		return strconv.AppendInt(buf, int64(x), 10)
	case int16:
		return strconv.AppendInt(buf, int64(x), 10)
	case int32:
		return strconv.AppendInt(buf, int64(x), 10)
	case int64:
		return strconv.AppendInt(buf, x, 10)
	case uint:
		return strconv.AppendUint(buf, uint64(x), 10)
	case uint8:
		return strconv.AppendUint(buf, uint64(x), 10)
	case uint16:
		return strconv.AppendUint(buf, uint64(x), 10)
	case uint32:
		return strconv.AppendUint(buf, uint64(x), 10)
	case uint64:
		return strconv.AppendUint(buf, x, 10)
	case float32:
		return appendFloat(buf, float64(x))
	case float64:
		return appendFloat(buf, x)
	case json.Number:
		// Re-emit the exact wire digits, so a decoded event
		// re-encodes byte-for-byte.
		if x == "" {
			return append(buf, '0')
		}
		return append(buf, x...)
	case time.Duration:
		// Integer nanoseconds; field keys name the unit (*_ns).
		return strconv.AppendInt(buf, int64(x), 10)
	case time.Time:
		return appendString(buf, x.UTC().Format(time.RFC3339Nano))
	case error:
		return appendString(buf, x.Error())
	case fmt.Stringer:
		return appendString(buf, x.String())
	default:
		return appendString(buf, fmt.Sprintf("%v", x))
	}
}

// appendFloat renders a float as JSON; NaN and infinities (invalid JSON)
// become strings.
func appendFloat(buf []byte, f float64) []byte {
	if f != f || f > 1.797693134862315708145274237317043567981e308 || f < -1.797693134862315708145274237317043567981e308 {
		return appendString(buf, fmt.Sprintf("%v", f))
	}
	return strconv.AppendFloat(buf, f, 'g', -1, 64)
}

const hexDigits = "0123456789abcdef"

// appendString appends a JSON-escaped string literal.
func appendString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	for i := 0; i < len(s); {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' && c < utf8.RuneSelf {
			buf = append(buf, c)
			i++
			continue
		}
		if c < utf8.RuneSelf {
			switch c {
			case '"':
				buf = append(buf, '\\', '"')
			case '\\':
				buf = append(buf, '\\', '\\')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			buf = append(buf, '\\', 'u', 'f', 'f', 'f', 'd')
			i++
			continue
		}
		buf = append(buf, s[i:i+size]...)
		i += size
	}
	return append(buf, '"')
}
