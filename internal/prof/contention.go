package prof

import (
	"runtime"
	"sort"
	"strings"
)

// SiteCount is one contended site of the runtime mutex or block profile:
// the innermost frame outside the runtime/sync machinery, with the
// cumulative sampled event count and waiting cycles attributed to it.
type SiteCount struct {
	// Site is the fully-qualified function that held (mutex profile) or
	// waited at (block profile) the contention point.
	Site string `json:"site"`
	// Count is the cumulative sampled contention events.
	Count int64 `json:"count"`
	// Cycles is the cumulative CPU cycles of waiting attributed to the
	// site (the runtime's unit; comparable within a process, not across).
	Cycles int64 `json:"cycles"`
}

// topSites extracts the maxSites most contended sites from a runtime profile
// collector (runtime.MutexProfile or runtime.BlockProfile). Records are
// aggregated by site label and ranked by cycles descending, ties broken by
// site label ascending — the ordering is deterministic for a given profile
// state, so repeated snapshots of a quiesced process agree.
func topSites(collect func([]runtime.BlockProfileRecord) (int, bool)) []SiteCount {
	sz, _ := collect(nil)
	if sz == 0 {
		return nil
	}
	var recs []runtime.BlockProfileRecord
	for {
		recs = make([]runtime.BlockProfileRecord, sz+64)
		var ok bool
		sz, ok = collect(recs)
		if ok {
			recs = recs[:sz]
			break
		}
	}
	agg := make(map[string]*SiteCount, len(recs))
	for i := range recs {
		site := siteOf(recs[i].Stack())
		c := agg[site]
		if c == nil {
			c = &SiteCount{Site: site}
			agg[site] = c
		}
		c.Count += recs[i].Count
		c.Cycles += recs[i].Cycles
	}
	out := make([]SiteCount, 0, len(agg))
	for _, c := range agg {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].Site < out[j].Site
	})
	if len(out) > maxSites {
		out = out[:maxSites]
	}
	return out
}

// siteOf resolves a profile stack to its blame label: the innermost frame
// that is not runtime or sync machinery (a mutex-profile stack starts at
// sync.(*Mutex).Unlock; the caller of the unlock is the contended site).
func siteOf(stk []uintptr) string {
	if len(stk) == 0 {
		return "unknown"
	}
	frames := runtime.CallersFrames(stk)
	first := ""
	for {
		f, more := frames.Next()
		name := f.Function
		if name != "" && first == "" {
			first = name
		}
		if name != "" &&
			!strings.HasPrefix(name, "runtime.") &&
			!strings.HasPrefix(name, "runtime_") &&
			!strings.HasPrefix(name, "sync.") &&
			!strings.HasPrefix(name, "internal/sync.") {
			return name
		}
		if !more {
			break
		}
	}
	if first == "" {
		return "unknown"
	}
	return first
}
