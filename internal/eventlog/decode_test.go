package eventlog

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"testing"
	"time"
)

func TestDecodeJSONRoundTripsLoggerOutput(t *testing.T) {
	l := New(Config{MinLevel: LevelDebug})
	ctx := context.Background()
	l.LogPID(ctx, LevelWarn, "detect", "window.alert", 4242,
		F("p", 0.97), F("window", 40), F("blocked", true), F("note", "π ≈ 3"))

	events := l.Recent()
	if len(events) != 1 {
		t.Fatalf("events = %d, want 1", len(events))
	}
	wire := events[0].AppendJSON(nil)
	got, err := decodeJSON(wire)
	if err != nil {
		t.Fatalf("decodeJSON: %v\nwire: %s", err, wire)
	}
	if got.Seq != events[0].Seq || got.Level != LevelWarn ||
		got.Component != "detect" || got.Name != "window.alert" || got.PID != 4242 {
		t.Fatalf("decoded %+v from %s", got, wire)
	}
	if !got.Time.Equal(events[0].Time.UTC().Truncate(time.Nanosecond)) {
		t.Fatalf("time = %v, want %v", got.Time, events[0].Time)
	}
	want := []Field{
		{Key: "p", Value: json.Number("0.97")},
		{Key: "window", Value: json.Number("40")},
		{Key: "blocked", Value: true},
		{Key: "note", Value: "π ≈ 3"},
	}
	if len(got.Fields) != len(want) {
		t.Fatalf("fields = %+v, want %+v", got.Fields, want)
	}
	for i := range want {
		if got.Fields[i] != want[i] {
			t.Errorf("field %d = %#v, want %#v", i, got.Fields[i], want[i])
		}
	}

	// The decoded event re-encodes to the identical wire bytes.
	again := got.AppendJSON(nil)
	if string(again) != string(wire) {
		t.Fatalf("re-encode drifted:\n got %s\nwant %s", again, wire)
	}
}

func TestDecodeJSONRejectsMalformedInput(t *testing.T) {
	cases := map[string]string{
		"empty":         ``,
		"array":         `[1]`,
		"truncated":     `{"seq":1`,
		"non-string":    `{1:2}`,
		"nested object": `{"x":{"y":1}}`,
		"nested array":  `{"x":[1]}`,
		"bad level":     `{"level":"loud"}`,
		"bad ts":        `{"ts":"yesterday"}`,
		"seq type":      `{"seq":"one"}`,
		"trailing":      `{"seq":1}{"seq":2}`,
	}
	for name, in := range cases {
		if _, err := decodeJSON([]byte(in)); err == nil {
			t.Errorf("%s: decodeJSON(%q) succeeded", name, in)
		}
	}
}

// decodeJSON parses one flat JSON-lines object produced by AppendJSON back
// into an Event: the round-trip oracle the tests and fuzz targets pin the
// hand-written encoder with. Fixed keys (seq, ts, level, component, event,
// job, pid, device) populate the struct fields; every other key becomes a
// Field, preserving wire order. Decoded field values are string, bool,
// nil, or json.Number — the JSON value domain; re-encoding a decoded event
// reproduces the wire bytes.
//
// Because the format is flat, an event whose Field key collides with a
// fixed key does not round-trip; emitters own their key space and the
// fixed names are reserved.
func decodeJSON(data []byte) (Event, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := expectDelim(dec, '{'); err != nil {
		return Event{}, err
	}
	var e Event
	seen := map[string]bool{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return Event{}, fmt.Errorf("eventlog: decode key: %w", err)
		}
		key, ok := tok.(string)
		if !ok {
			return Event{}, fmt.Errorf("eventlog: decode: non-string key %v", tok)
		}
		val, err := decodeValue(dec)
		if err != nil {
			return Event{}, fmt.Errorf("eventlog: decode %q: %w", key, err)
		}
		switch key {
		case "seq", "ts", "level", "component", "event":
			seen[key] = true
		}
		switch key {
		case "seq":
			e.Seq, err = asInt64(val)
		case "ts":
			var s string
			if s, err = asString(val); err == nil {
				e.Time, err = time.Parse(time.RFC3339Nano, s)
			}
		case "level":
			var s string
			if s, err = asString(val); err == nil {
				e.Level, err = ParseLevel(s)
			}
		case "component":
			e.Component, err = asString(val)
		case "event":
			e.Name, err = asString(val)
		case "job":
			e.Job, err = asInt64(val)
		case "pid":
			var pid int64
			if pid, err = asInt64(val); err == nil {
				e.PID = int(pid)
			}
		case "device":
			e.Device, err = asString(val)
		default:
			e.Fields = append(e.Fields, Field{Key: key, Value: val})
		}
		if err != nil {
			return Event{}, fmt.Errorf("eventlog: decode %q: %w", key, err)
		}
	}
	if err := expectDelim(dec, '}'); err != nil {
		return Event{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return Event{}, fmt.Errorf("eventlog: decode: trailing data after event object")
	}
	// AppendJSON always writes these five; their absence means the input
	// is not an event line.
	for _, key := range []string{"seq", "ts", "level", "component", "event"} {
		if !seen[key] {
			return Event{}, fmt.Errorf("eventlog: decode: missing required key %q", key)
		}
	}
	return e, nil
}

func expectDelim(dec *json.Decoder, want json.Delim) error {
	tok, err := dec.Token()
	if err != nil {
		return fmt.Errorf("eventlog: decode: %w", err)
	}
	if d, ok := tok.(json.Delim); !ok || d != want {
		return fmt.Errorf("eventlog: decode: got %v, want %v", tok, want)
	}
	return nil
}

// decodeValue reads one scalar value token. The encoder emits a flat
// object — nested arrays or objects are a format violation.
func decodeValue(dec *json.Decoder) (any, error) {
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	switch v := tok.(type) {
	case string, bool, json.Number, nil:
		return v, nil
	case json.Delim:
		return nil, fmt.Errorf("nested %v value in flat event object", v)
	default:
		return nil, fmt.Errorf("unsupported token %T", tok)
	}
}

func asString(v any) (string, error) {
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("got %T, want string", v)
	}
	return s, nil
}

func asInt64(v any) (int64, error) {
	n, ok := v.(json.Number)
	if !ok {
		return 0, fmt.Errorf("got %T, want number", v)
	}
	return n.Int64()
}
