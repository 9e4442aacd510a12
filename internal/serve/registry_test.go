package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/kfrida1/csdinf/internal/device"
	"github.com/kfrida1/csdinf/internal/infer"
)

// TestSharedRegistryHandles runs the server over a pre-registered device
// and checks its lifecycle state gates new work: a drained device fails
// submits fast with ErrNoReadyDevice, and a rejoined one serves again.
func TestSharedRegistryHandles(t *testing.T) {
	reg := device.NewRegistry(device.Config{})
	d := reg.Register()
	if err := d.SetReady("test"); err != nil {
		t.Fatal(err)
	}
	s, err := New([]infer.Inferencer{&fakeInf{seqLen: 8, cost: time.Millisecond}}, Config{Device: d})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if reg.Len() != 1 {
		t.Fatalf("server registered extra devices: %d", reg.Len())
	}
	if _, _, err := s.Predict(context.Background(), testSeq()); err != nil {
		t.Fatal(err)
	}

	if err := d.Drain("maintenance"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Predict(context.Background(), testSeq()); !errors.Is(err, ErrNoReadyDevice) {
		t.Fatalf("drained device: err = %v, want ErrNoReadyDevice", err)
	}
	if st := s.Stats(); st.ID != "csd-000" || st.State != "draining" || st.Jobs != 1 {
		t.Fatalf("drained stats = %+v, want csd-000 draining with 1 job", st)
	}

	// Rejoin restores service.
	if err := d.SetReady("maintenance-done"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Predict(context.Background(), testSeq()); err != nil {
		t.Fatalf("after rejoin: %v", err)
	}
	if st := s.Stats(); st.State != "ready" || st.Jobs != 2 {
		t.Fatalf("rejoined stats = %+v, want ready with 2 jobs", st)
	}
}
