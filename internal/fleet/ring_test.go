package fleet

import (
	"fmt"
	"testing"

	"github.com/kfrida1/csdinf/internal/device"
)

// TestRingBalance pins the property the placement layer is built on: with
// the default vnode count, tenant load spreads across every device. This
// regressed once before — raw FNV-1a clusters the near-identical vnode
// labels so badly that two of four devices received zero tenants — so the
// bound here is deliberately generous (half the fair share) but would have
// caught that collapse outright.
func TestRingBalance(t *testing.T) {
	ids := []device.ID{"csd-000", "csd-001", "csd-002", "csd-003"}
	r := newRing(ids)
	all := func(device.ID) bool { return true }

	const tenants = 1000
	counts := map[device.ID]int{}
	for i := 0; i < tenants; i++ {
		counts[r.lookup(fmt.Sprintf("tenant-%d", i), all)]++
	}
	fair := tenants / len(ids)
	for _, id := range ids {
		if counts[id] < fair/2 {
			t.Errorf("device %s received %d of %d tenants, want at least %d (distribution %v)",
				id, counts[id], tenants, fair/2, counts)
		}
	}
}

// TestRingDrainStability pins the consistent-hashing property: rejecting
// one device moves only that device's tenants, everyone else stays put.
func TestRingDrainStability(t *testing.T) {
	ids := []device.ID{"csd-000", "csd-001", "csd-002", "csd-003"}
	r := newRing(ids)
	all := func(device.ID) bool { return true }
	const drained = device.ID("csd-002")
	without := func(id device.ID) bool { return id != drained }

	const tenants = 500
	moved := 0
	for i := 0; i < tenants; i++ {
		key := fmt.Sprintf("tenant-%d", i)
		before := r.lookup(key, all)
		after := r.lookup(key, without)
		if after == drained {
			t.Fatalf("tenant %s placed on drained device", key)
		}
		if before == drained {
			moved++
			continue
		}
		if after != before {
			t.Errorf("tenant %s moved %s -> %s though its device was not drained", key, before, after)
		}
	}
	if moved == 0 {
		t.Fatal("no tenants were assigned to the drained device; balance test should have caught this")
	}
}
