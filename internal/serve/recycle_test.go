// The race detector's sync.Pool drops a random quarter of its Puts, so
// allocation counts of pooled requests mean nothing under -race.

//go:build !race

package serve

import (
	"context"
	"testing"

	"github.com/kfrida1/csdinf/internal/infer"
)

// TestServedRequestsAreRecycled pins that a served request leaves no
// garbage: its request, done channel and window buffer go back to the
// server's pool once the caller holds the response.
func TestServedRequestsAreRecycled(t *testing.T) {
	s, err := New([]infer.Inferencer{&fakeInf{seqLen: 8}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	window := testSeq()
	for name, tc := range map[string]struct {
		call func() error
		want float64
	}{
		"stored": {func() error { _, _, err := s.PredictStored(ctx, 0); return err }, 0},
		"live":   {func() error { _, _, err := s.Predict(ctx, window); return err }, 0},
	} {
		var callErr error
		allocs := testing.AllocsPerRun(200, func() {
			if err := tc.call(); err != nil {
				callErr = err
			}
		})
		if callErr != nil {
			t.Fatalf("%s: %v", name, callErr)
		}
		if allocs != tc.want {
			t.Errorf("%s: %.0f allocations per served request, want %.0f", name, allocs, tc.want)
		}
	}
}
