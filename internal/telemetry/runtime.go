package telemetry

import (
	"runtime/metrics"
	"sync"
)

// RuntimeStats is one read of the Go runtime through runtime/metrics, which
// never stops the world. The counters are cumulative since process start.
type RuntimeStats struct {
	Goroutines  uint64
	HeapBytes   uint64 // live heap object bytes (MemStats.HeapAlloc)
	HeapObjects uint64
	AllocBytes  uint64 // bytes allocated (MemStats.TotalAlloc)
	Mallocs     uint64 // heap allocations, tiny ones included (MemStats.Mallocs)
	GCCycles    uint64
	// Pauses is the GC stop-the-world pause histogram: Pauses[i] pauses
	// lasted between PauseBuckets[i] and PauseBuckets[i+1] seconds, in
	// the runtime's own bucket layout, fixed for the process.
	Pauses       []uint64
	PauseBuckets []float64
}

// Indices into runtimeReader.samples. The two allocation counters sit
// side by side, so the stage timers read just that pair.
const (
	rtGoroutines = iota
	rtHeapBytes
	rtHeapObjects
	rtAllocBytes
	rtMallocs
	rtTinyMallocs
	rtGCCycles
	rtPauses
)

// runtimeReader is the process's one reader of runtime/metrics. Its sample
// slice is allocated once; the mutex serializes reads into it.
var runtimeReader = struct {
	mu      sync.Mutex
	samples []metrics.Sample
}{samples: []metrics.Sample{
	rtGoroutines:  {Name: "/sched/goroutines:goroutines"},
	rtHeapBytes:   {Name: "/memory/classes/heap/objects:bytes"},
	rtHeapObjects: {Name: "/gc/heap/objects:objects"},
	rtAllocBytes:  {Name: "/gc/heap/allocs:bytes"},
	rtMallocs:     {Name: "/gc/heap/allocs:objects"},
	rtTinyMallocs: {Name: "/gc/heap/tiny/allocs:objects"},
	rtGCCycles:    {Name: "/gc/cycles/total:gc-cycles"},
	rtPauses:      {Name: "/sched/pauses/total/gc:seconds"},
}}

// ReadRuntime reads the Go runtime once and refreshes the baseline go_*
// series on r (go_goroutines, go_heap_alloc_bytes, go_gc_pauses_total); a
// nil r only reads. The pause histogram is copied into pauses' backing
// array when it is large enough, so a caller that hands back the previous
// read's Pauses reads without allocating.
func ReadRuntime(r *Registry, pauses []uint64) RuntimeStats {
	rt := &runtimeReader
	rt.mu.Lock()
	defer rt.mu.Unlock()
	s := rt.samples
	metrics.Read(s)
	h := s[rtPauses].Value.Float64Histogram()
	st := RuntimeStats{
		Goroutines:   s[rtGoroutines].Value.Uint64(),
		HeapBytes:    s[rtHeapBytes].Value.Uint64(),
		HeapObjects:  s[rtHeapObjects].Value.Uint64(),
		AllocBytes:   s[rtAllocBytes].Value.Uint64(),
		Mallocs:      s[rtMallocs].Value.Uint64() + s[rtTinyMallocs].Value.Uint64(),
		GCCycles:     s[rtGCCycles].Value.Uint64(),
		Pauses:       append(pauses[:0], h.Counts...),
		PauseBuckets: h.Buckets,
	}
	if r != nil {
		r.Gauge("go_goroutines", "Live goroutines at the last runtime read.").Set(int64(st.Goroutines))
		r.Gauge("go_heap_alloc_bytes", "Bytes of live heap objects at the last runtime read.").Set(int64(st.HeapBytes))
		// The counter mirrors the runtime's cumulative count. Every
		// update happens under the reader's lock, so two readers of one
		// registry (a scrape and the profiler) never credit a pause twice.
		c := r.Counter("go_gc_pauses_total", "Cumulative garbage-collection stop-the-world pauses.")
		d := -c.Value()
		for _, n := range h.Counts {
			d += int64(n)
		}
		c.Add(d)
	}
	return st
}

// mallocs reads the cumulative heap-allocation count (RuntimeStats.Mallocs)
// without allocating. It is only meaningful between two points with no
// concurrent allocators — the serialized self-audit, not a loaded fleet —
// and moves in steps of whole spans: the runtime counts a span's small
// allocations when the span leaves its mcache (full, or flushed by a GC).
func mallocs() uint64 {
	rt := &runtimeReader
	rt.mu.Lock()
	defer rt.mu.Unlock()
	pair := rt.samples[rtMallocs : rtTinyMallocs+1]
	metrics.Read(pair)
	return pair[0].Value.Uint64() + pair[1].Value.Uint64()
}
