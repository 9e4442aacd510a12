package fleet

import (
	"hash/fnv"
	"sort"
	"strconv"

	"github.com/kfrida1/csdinf/internal/device"
)

// ring is a consistent-hash ring over device IDs. Each device contributes
// virtualNodes points, so tenant load spreads evenly even at small fleet
// sizes, and a tenant's hash maps to the same device for as long as that
// device is in rotation — the property that keeps one tenant's detector
// traffic (and its per-device trace timeline) on one drive. Membership is
// fixed at construction (the registry never forgets a device); lifecycle
// is honored at lookup time instead, so a drained device's tenants slide
// to the next point on the ring and slide back when it rejoins, with no
// rebuild and no remapping of unrelated tenants.
type ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	id   device.ID
}

// virtualNodes balances spread against lookup cost; at 64 points per
// device a 16-drive fleet has 1024 points, and the worst observed tenant
// imbalance stays within a few percent.
const virtualNodes = 64

func newRing(ids []device.ID) *ring {
	r := &ring{points: make([]ringPoint, 0, len(ids)*virtualNodes)}
	for _, id := range ids {
		for v := 0; v < virtualNodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: hashKey(string(id) + "#" + strconv.Itoa(v)),
				id:   id,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].id < r.points[j].id
	})
	return r
}

// lookup returns the first device at or after the tenant's hash for which
// ok reports true (in practice: is Ready), walking the ring clockwise.
// Returns "" when no device qualifies.
func (r *ring) lookup(tenant string, ok func(device.ID) bool) device.ID {
	if len(r.points) == 0 {
		return ""
	}
	h := hashKey(tenant)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	// Walk at most one full revolution, skipping duplicate device IDs via
	// the ok predicate's own short-circuiting (a rejected device is
	// re-tested cheaply at each of its points).
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if ok(p.id) {
			return p.id
		}
	}
	return ""
}

// hashKey is 64-bit FNV-1a followed by a splitmix64-style finalizer.
// Raw FNV-1a has weak avalanche on short, near-identical keys — the
// vnode labels "csd-003#0".."csd-003#63" differ only in trailing digits
// and hash to tightly clustered values, which collapses the ring into a
// handful of wide arcs owned by one or two devices. The finalizer's
// xor-shift/multiply rounds diffuse every input bit across the word, so
// each device's points scatter uniformly. Deterministic across runs (no
// seed) and still cheap.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer (Steele et al.), a bijective
// avalanche function: every output bit depends on every input bit.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
