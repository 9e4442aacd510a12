package csd

import (
	"regexp"
	"testing"

	"github.com/kfrida1/csdinf/internal/eventlog"
)

// eventNamePattern mirrors the eventname lint pass's grammar; transfer
// events must stay inside it.
var eventNamePattern = regexp.MustCompile(`^[a-z][a-z0-9_-]*(\.[a-z0-9_-]+)+$`)

// TestTransferEventNamesAreConstants pins the fix for the runtime-built
// "transfer."+path event name: every transfer path must emit exactly its
// named constant, and the vocabulary must satisfy the event-name grammar.
func TestTransferEventNamesAreConstants(t *testing.T) {
	s := newDevice(t)
	log := eventlog.New(eventlog.Config{MinLevel: eventlog.LevelDebug})
	s.SetEventLogger(log, "csd0")
	s.TraceJob(77)

	seq := []int{1, 2, 3}
	if _, err := s.StoreSequence(0, seq); err != nil {
		t.Fatal(err)
	}
	buf, err := s.Alloc(int64(len(seq)*ItemBytes), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.TransferP2P(0, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TransferViaHost(0, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteBuffer(buf, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}

	want := []string{EvTransferP2P, EvTransferViaHost, EvTransferH2D}
	events := log.Recent()
	if len(events) != len(want) {
		t.Fatalf("got %d events, want %d", len(events), len(want))
	}
	for i, ev := range events {
		if ev.Name != want[i] {
			t.Errorf("event %d name = %q, want %q", i, ev.Name, want[i])
		}
		if !eventNamePattern.MatchString(ev.Name) {
			t.Errorf("event name %q violates the dot-scoped grammar", ev.Name)
		}
		if ev.Job != 77 {
			t.Errorf("event %d job = %d, want the stamped 77", i, ev.Job)
		}
	}
}
