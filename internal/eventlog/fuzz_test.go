package eventlog

import (
	"testing"
	"time"
)

// FuzzEventJSON pins the JSON-lines wire format by round-trip: an encoded
// event must decode back, and from the first decode onward the
// encode/decode pair must be a byte-exact fixed point. (The first encoding
// may normalize — invalid UTF-8 is replaced, fractional-second zeros are
// dropped — so the fixed point is asserted from the normalized form.)
func FuzzEventJSON(f *testing.F) {
	f.Add(int64(1), uint8(2), "serve", "request.done", int64(12), 0,
		"latency_ns", "x", int64(12345), true, 0.25, int64(1700000000000000000))
	f.Add(int64(9), uint8(4), "detect", "mitigation.block", int64(0), 4242,
		"p", "ransom\nware\x80", int64(-3), false, -1.5e-7, int64(0))
	f.Fuzz(func(t *testing.T, seq int64, lvl uint8, component, name string, job int64, pid int,
		fkey, fstr string, fint int64, fbool bool, ffloat float64, tnanos int64) {

		e := Event{
			Seq:  seq,
			Time: time.Unix(0, tnanos&(1<<61-1)).UTC(), // keep the year RFC3339-parseable
			// Level must be one of the four named severities: anything else
			// renders as "Level(n)", which is not part of the wire format.
			Level:     Level(int(lvl)%4 + 1),
			Component: component,
			Name:      name,
			Job:       job,
			PID:       pid,
			Fields: []Field{
				// The f_ prefix keeps fuzzed keys off the reserved fixed
				// names (seq, ts, ...), which by contract do not round-trip.
				{Key: "f_" + fkey, Value: fstr},
				{Key: "f_i", Value: fint},
				{Key: "f_b", Value: fbool},
				{Key: "f_f", Value: ffloat},
			},
		}

		enc1 := e.AppendJSON(nil)
		d1, err := decodeJSON(enc1)
		if err != nil {
			t.Fatalf("decode of encoder output failed: %v\nwire: %s", err, enc1)
		}
		if d1.Seq != e.Seq || d1.Level != e.Level || d1.Job != e.Job || d1.PID != e.PID {
			t.Fatalf("fixed fields corrupted: got %+v, want %+v", d1, e)
		}
		if !d1.Time.Equal(e.Time) {
			t.Fatalf("timestamp corrupted: got %v, want %v", d1.Time, e.Time)
		}
		if len(d1.Fields) != len(e.Fields) {
			t.Fatalf("field count %d, want %d\nwire: %s", len(d1.Fields), len(e.Fields), enc1)
		}

		enc2 := d1.AppendJSON(nil)
		d2, err := decodeJSON(enc2)
		if err != nil {
			t.Fatalf("decode of re-encoded event failed: %v\nwire: %s", err, enc2)
		}
		enc3 := d2.AppendJSON(nil)
		if string(enc2) != string(enc3) {
			t.Fatalf("encode/decode is not a fixed point:\nenc2: %s\nenc3: %s", enc2, enc3)
		}
	})
}

// FuzzDecodeJSON feeds the decoder raw bytes: it must never panic, and on
// success the decoded event must re-encode into something it can decode
// again.
func FuzzDecodeJSON(f *testing.F) {
	f.Add([]byte(`{"seq":1,"ts":"2026-01-02T03:04:05Z","level":"info","component":"c","event":"a.b"}`))
	f.Add([]byte(`{"seq":1`))
	f.Add([]byte(`[1,2]`))
	f.Add([]byte(`{"seq":1,"ts":"2026-01-02T03:04:05Z","level":"info","component":"c","event":"a.b","x":{"nested":true}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := decodeJSON(data)
		if err != nil {
			return
		}
		if _, err := decodeJSON(e.AppendJSON(nil)); err != nil {
			t.Fatalf("re-encoded event does not decode: %v\nwire: %s", err, e.AppendJSON(nil))
		}
	})
}
