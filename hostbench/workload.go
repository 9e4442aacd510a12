package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"github.com/kfrida1/csdinf/internal/csd"
	"github.com/kfrida1/csdinf/internal/infer"
	"github.com/kfrida1/csdinf/internal/sandbox"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlLive   = "live-open"
	wlStream = "stream-detect"
	wlScan   = "scan-stored"
)

var workloadNames = []string{wlLive, wlStream, wlScan}

const (
	// seqLen is the paper's classification window.
	seqLen = 100
	// clients bounds the benchmark's own client goroutines: one per host
	// core of the 2-core machine the benchmark was sized on.
	clients = 2
	// liveRate is live-open's fixed offered load, windows per second:
	// about a sixth of the wired fleet's saturated capacity on two Xeon
	// cores (~1.25k windows/s closed-loop). Host speed on a shared machine
	// dips by up to half for minutes at a time, and an open loop amplifies
	// a dip into queueing: at 450/s (40 %) one run in ten backlogged
	// (p99 182 ms) and at 300/s two in ten tripled their p90. At this rate
	// a dip still shows as queueing without swamping the run.
	liveRate = 200
	// livePIDs is the live-open process population; each PID is a fleet
	// tenant.
	livePIDs = 2000
	// windowsPerPID live windows are cut from each process trace at the
	// detector stride.
	windowsPerPID = 2
	// liveRansomFraction of live-open processes replay ransomware
	// (csdload's default population mix).
	liveRansomFraction = 0.1
	// scanPIDs × windowsPerPID sequences are mirrored on every SSD for
	// scan-stored; half come from ransomware traces.
	scanPIDs = 512
	// Stream-detect trace lengths per process, and how many processes of
	// a stream's roster run (interleaved) at once.
	ransomTraceLen = 300
	benignTraceLen = 600
	activeProcs    = 4
	streamRosters  = 2
	// cutStride is the detector's default stride, used to cut live windows.
	cutStride = 25
)

// arrival is one scheduled live-open request.
type arrival struct {
	at  time.Duration // intended send, from the start of the run
	win int           // index into workload.windows
}

// streamCall is one API call of a stream-detect stream.
type streamCall struct {
	pid  int
	call int
}

// proc is one replayed process of a stream-detect roster.
type proc struct {
	pid   int
	truth bool // ground-truth ransomware
}

// stream is one stream-detect API-call stream: a roster of processes
// interleaved by PID.
type stream struct {
	calls []streamCall
	procs []proc
}

// workload holds every input one run feeds the system, generated from the
// seed alone. The program under test sees only these inputs.
type workload struct {
	name  string
	wired bool // fleet carries csdload's observability stack

	// windows are classification inputs: live windows, or for scan-stored
	// the sequences mirrored on every SSD. truth is each window's ground
	// truth.
	windows [][]int
	truth   []bool
	// ctxs carries each live window's tenant (its PID).
	ctxs []context.Context

	arrivals []arrival // live-open
	streams  []stream  // stream-detect
	orders   [][]int   // scan-stored: per-client scan order over windows

	digest string
}

// storedOffset is the SSD byte offset of stored sequence i.
func storedOffset(i int) int64 { return int64(i) * seqLen * csd.ItemBytes }

// catalog is every sandbox behaviour profile: the 76 ransomware variants
// of Table II and the 30 benign apps.
type catalog struct {
	ransom []*sandbox.Profile
	benign []*sandbox.Profile
}

func newCatalog() (*catalog, error) {
	c := &catalog{}
	for _, fam := range sandbox.Families {
		for v := 0; v < fam.Variants; v++ {
			p, err := sandbox.RansomwareProfile(fam.Name, v)
			if err != nil {
				return nil, err
			}
			c.ransom = append(c.ransom, p)
		}
	}
	for _, app := range sandbox.BenignApps {
		p, err := sandbox.BenignProfile(app)
		if err != nil {
			return nil, err
		}
		c.benign = append(c.benign, p)
	}
	return c, nil
}

// generate builds the named workload's inputs for a seed. duration is the
// whole run (warm-up plus measurement); only live-open's arrival schedule
// depends on it.
func generate(name string, seed int64, duration time.Duration) (*workload, error) {
	cat, err := newCatalog()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	w := &workload{name: name}
	switch name {
	case wlLive:
		w.wired = true
		if err := w.cutWindows(cat, rng, livePIDs, liveRansomFraction); err != nil {
			return nil, err
		}
		w.ctxs = make([]context.Context, len(w.windows))
		for i := range w.windows {
			w.ctxs[i] = infer.WithTenant(context.Background(), fmt.Sprintf("pid-%d", i/windowsPerPID))
		}
		// Poisson arrivals; each picks a process and sends its next window.
		next := make([]int, livePIDs)
		for at := expGap(rng); at < duration; at += expGap(rng) {
			pid := rng.Intn(livePIDs)
			w.arrivals = append(w.arrivals, arrival{at: at, win: pid*windowsPerPID + next[pid]})
			next[pid] = (next[pid] + 1) % windowsPerPID
		}
	case wlStream:
		// Every stream replays the whole catalog streamRosters times, each
		// roster in its own seeded order, so streams and seeds differ only
		// in order, traces and interleaving.
		for s := 0; s < clients; s++ {
			var roster []*sandbox.Profile
			for r := 0; r < streamRosters; r++ {
				all := append(slices.Clone(cat.ransom), cat.benign...)
				rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
				roster = append(roster, all...)
			}
			st, err := interleave(roster, 10000*(s+1), rng)
			if err != nil {
				return nil, err
			}
			w.streams = append(w.streams, st)
		}
	case wlScan:
		if err := w.cutWindows(cat, rng, scanPIDs, 0.5); err != nil {
			return nil, err
		}
		for c := 0; c < clients; c++ {
			w.orders = append(w.orders, rng.Perm(len(w.windows)))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	w.digest = w.inputDigest()
	return w, nil
}

// expGap draws a Poisson inter-arrival gap at liveRate.
func expGap(rng *rand.Rand) time.Duration {
	return time.Duration(rng.ExpFloat64() / liveRate * float64(time.Second))
}

// cutWindows gives each of n processes a seeded profile and trace, and
// cuts windowsPerPID windows from each trace at the detector stride.
func (w *workload) cutWindows(cat *catalog, rng *rand.Rand, n int, ransomFrac float64) error {
	traceLen := seqLen + (windowsPerPID-1)*cutStride
	for pid := 0; pid < n; pid++ {
		p := cat.benign[rng.Intn(len(cat.benign))]
		if rng.Float64() < ransomFrac {
			p = cat.ransom[rng.Intn(len(cat.ransom))]
		}
		trace, err := p.Generate(traceLen, rng.Int63())
		if err != nil {
			return err
		}
		for k := 0; k < windowsPerPID; k++ {
			w.windows = append(w.windows, trace[k*cutStride:k*cutStride+seqLen])
			w.truth = append(w.truth, p.Ransomware)
		}
	}
	return nil
}

// interleave replays a roster as one system-wide call stream: activeProcs
// processes run at once, the next call coming from a seeded choice among
// them, and a finished process makes room for the next in the roster.
func interleave(roster []*sandbox.Profile, basePID int, rng *rand.Rand) (stream, error) {
	type running struct {
		pid   int
		trace []int
	}
	var st stream
	var active []running
	next := 0
	admit := func() error {
		p := roster[next]
		n := benignTraceLen
		if p.Ransomware {
			n = ransomTraceLen
		}
		trace, err := p.Generate(n, rng.Int63())
		if err != nil {
			return err
		}
		pid := basePID + next
		st.procs = append(st.procs, proc{pid: pid, truth: p.Ransomware})
		active = append(active, running{pid: pid, trace: trace})
		next++
		return nil
	}
	for len(active) < activeProcs && next < len(roster) {
		if err := admit(); err != nil {
			return stream{}, err
		}
	}
	for len(active) > 0 {
		i := rng.Intn(len(active))
		r := &active[i]
		st.calls = append(st.calls, streamCall{pid: r.pid, call: r.trace[0]})
		r.trace = r.trace[1:]
		if len(r.trace) == 0 {
			active = append(active[:i], active[i+1:]...)
			if next < len(roster) {
				if err := admit(); err != nil {
					return stream{}, err
				}
			}
		}
	}
	return st, nil
}

// inputDigest hashes every generated input, so two runs can be shown to
// have measured the same traffic.
func (w *workload) inputDigest() string {
	h := sha256.New()
	put := func(v int64) { _ = binary.Write(h, binary.LittleEndian, v) }
	putSeqs := func(seqs [][]int) {
		put(int64(len(seqs)))
		for _, s := range seqs {
			for _, v := range s {
				put(int64(v))
			}
		}
	}
	h.Write([]byte(w.name))
	putSeqs(w.windows)
	for _, a := range w.arrivals {
		put(int64(a.at))
		put(int64(a.win))
	}
	for _, st := range w.streams {
		put(int64(len(st.calls)))
		for _, c := range st.calls {
			put(int64(c.pid))
			put(int64(c.call))
		}
	}
	putSeqs(w.orders)
	return hex.EncodeToString(h.Sum(nil))[:16]
}
