// Package csd models the SmartSSD computational storage drive of the
// paper's Fig. 1: an NVMe SSD and an FPGA with its own DRAM, joined by an
// on-board PCIe switch that supports peer-to-peer (P2P) transfers between
// the SSD and FPGA DRAM without crossing to the host.
//
// The package owns the *data plane*: where bytes live (SSD pages, FPGA DRAM
// banks, host memory) and what each movement costs. The compute plane — the
// five inference kernels scheduled on the FPGA fabric — lives in
// internal/kernels; internal/core composes the two into the deployable
// inference engine.
//
// Both data paths of Fig. 1 are implemented and timed:
//
//   - P2P: SSD → switch → FPGA DRAM. One switch-local PCIe traversal; no
//     host involvement, no root-complex traffic.
//   - Host-mediated: SSD → host → FPGA DRAM. Two root-complex traversals
//     plus a host memcpy — the traditional path the paper's P2P support
//     renders unnecessary.
//
// Traffic on each path is accounted so the P2P ablation can report exactly
// how much PCIe host traffic the architecture eliminates.
package csd

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/kfrida1/csdinf/internal/eventlog"
	"github.com/kfrida1/csdinf/internal/pcie"
	"github.com/kfrida1/csdinf/internal/ssd"
	"github.com/kfrida1/csdinf/internal/telemetry"
	"github.com/kfrida1/csdinf/internal/trace"
)

// Config describes a SmartSSD device.
type Config struct {
	// SSD configures the flash half; zero values take PM1733 defaults.
	SSD ssd.Config
	// DRAMBytes is the FPGA DRAM capacity; 0 defaults to 4 GB (SmartSSD).
	DRAMBytes int64
	// DRAMBanks is the number of DDR banks; 0 defaults to 2, the paper's
	// conservative choice (§III-C).
	DRAMBanks int
	// Internal is the switch-local SSD↔FPGA link; zero value defaults to
	// the SmartSSD's Gen3 x4 internal path.
	Internal pcie.Link
	// Host is the host↔device link; zero value defaults to Gen3 x4 through
	// the root complex.
	Host pcie.Link
	// HostCopyBandwidth is the host-memory staging bandwidth (bytes/s) paid
	// by host-mediated transfers; 0 defaults to 10 GB/s.
	HostCopyBandwidth float64
}

func (c *Config) defaults() {
	if c.DRAMBytes == 0 {
		c.DRAMBytes = 4 << 30
	}
	if c.DRAMBanks == 0 {
		c.DRAMBanks = 2
	}
	if c.Internal.Lanes == 0 {
		c.Internal = pcie.SmartSSDInternal
	}
	if c.Host.Lanes == 0 {
		c.Host = pcie.HostGen3x4
	}
	if c.HostCopyBandwidth == 0 {
		c.HostCopyBandwidth = 10e9
	}
}

// SmartSSD is a simulated computational storage drive. It is safe for
// concurrent use.
type SmartSSD struct {
	drive    *ssd.Drive
	internal pcie.Link
	host     pcie.Link
	hostBW   float64

	mu        sync.Mutex
	banks     []bank
	bankSize  int64
	p2pBytes  int64 // cumulative bytes moved SSD→FPGA via the switch
	hostBytes int64 // cumulative bytes crossing the host root complex

	// Timeline tracing (optional; see internal/trace). traceJob is atomic
	// because the transfer APIs predate context plumbing: the caller that
	// owns the device stream stamps the current job before transferring.
	tracer     *trace.Tracer
	traceGroup string
	traceJob   atomic.Int64

	// Structured event emission (optional; see internal/eventlog). Transfer
	// events are debug-level — one per DMA — and carry the same job ID the
	// timeline events do.
	events     *eventlog.Logger
	eventsName string
}

// SetTracer attaches a timeline tracer; subsequent transfers emit events on
// the device's SSD / PCIe / DDR tracks under the given track group (one
// group per physical device, e.g. "csd0"). A nil tracer detaches.
func (s *SmartSSD) SetTracer(t *trace.Tracer, group string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tracer = t
	s.traceGroup = group
}

// TraceJob stamps the trace correlation ID attributed to subsequent
// transfer events. The transfer APIs take no context (they model raw device
// DMA), so the single-stream owner of the device sets the job up front.
func (s *SmartSSD) TraceJob(id int64) { s.traceJob.Store(id) }

// SetEventLogger attaches a structured event logger; subsequent transfers
// emit one debug event per DMA under the given device name (matching the
// trace track group, e.g. "csd0"), carrying path, byte count, duration, and
// the current TraceJob correlation ID. A nil logger detaches.
func (s *SmartSSD) SetEventLogger(l *eventlog.Logger, device string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = l
	s.eventsName = device
}

// Event names emitted on the structured log, one per transfer path. Names
// are fixed constants so the log's vocabulary stays enumerable (and
// grep-able); the eventname lint pass rejects runtime-built names.
const (
	EvTransferP2P     = "transfer.p2p"
	EvTransferViaHost = "transfer.via-host"
	EvTransferH2D     = "transfer.h2d"
)

// emitTransfer reports one completed DMA on the structured event log; event
// is one of the EvTransfer* constants.
func (s *SmartSSD) emitTransfer(event string, bytes int64, d time.Duration) {
	s.mu.Lock()
	l, name := s.events, s.eventsName
	s.mu.Unlock()
	if !l.Enabled(eventlog.LevelDebug) {
		return
	}
	ctx := telemetry.WithSpan(context.Background(), &telemetry.Span{ID: s.traceJob.Load()})
	l.Debug(ctx, "csd", event,
		eventlog.F("device", name),
		eventlog.F("bytes", bytes),
		eventlog.F("transfer_ns", d))
}

// traceTransfer places a serial chain of transfer stages on the device's
// timeline: each stage occupies its track for its duration, back to back
// from the group anchor, and the destination DDR bank is busy for the final
// link hop's interval (the bank fills as the link delivers; the shared
// interval merges rather than double-counts in the profiler). Advances the
// group cursor to the chain's end.
func (s *SmartSSD) traceTransfer(bank int, stages []trace.Event) {
	s.mu.Lock()
	tr, group := s.tracer, s.traceGroup
	s.mu.Unlock()
	if !tr.Enabled() || len(stages) == 0 {
		return
	}
	job := s.traceJob.Load()
	at := tr.Anchor(group)
	for i := range stages {
		stages[i].Track.Group = group
		stages[i].Cat = trace.CatTransfer
		stages[i].Job = job
		stages[i].Start = at
		at += stages[i].Dur
		tr.Emit(stages[i])
	}
	tr.Advance(group, at)
	last := stages[len(stages)-1]
	tr.Emit(trace.Event{
		Track: trace.Track{Group: group, Name: fmt.Sprintf("ddr-bank%d", bank)},
		Name:  "ddr:" + last.Name, Cat: trace.CatTransfer,
		Start: last.Start, Dur: last.Dur, Job: job,
	})
}

type bank struct {
	used int64
}

// New builds a SmartSSD from the configuration.
func New(cfg Config) (*SmartSSD, error) {
	cfg.defaults()
	if cfg.DRAMBanks <= 0 {
		return nil, fmt.Errorf("csd: DRAM banks must be positive, got %d", cfg.DRAMBanks)
	}
	if cfg.DRAMBytes <= 0 {
		return nil, fmt.Errorf("csd: DRAM size must be positive, got %d", cfg.DRAMBytes)
	}
	drive, err := ssd.New(cfg.SSD)
	if err != nil {
		return nil, fmt.Errorf("csd: %w", err)
	}
	if _, err := cfg.Internal.Bandwidth(); err != nil {
		return nil, fmt.Errorf("csd: internal link: %w", err)
	}
	if _, err := cfg.Host.Bandwidth(); err != nil {
		return nil, fmt.Errorf("csd: host link: %w", err)
	}
	s := &SmartSSD{
		drive:    drive,
		internal: cfg.Internal,
		host:     cfg.Host,
		hostBW:   cfg.HostCopyBandwidth,
		bankSize: cfg.DRAMBytes / int64(cfg.DRAMBanks),
	}
	s.banks = make([]bank, cfg.DRAMBanks)
	return s, nil
}

// SSD exposes the drive half for direct storage I/O.
func (s *SmartSSD) SSD() *ssd.Drive { return s.drive }

// Banks returns the number of FPGA DRAM banks.
func (s *SmartSSD) Banks() int { return len(s.banks) }

// Buffer is a region of FPGA DRAM allocated to a kernel argument, the
// analogue of an XRT buffer object.
type Buffer struct {
	// Bank is the DDR bank the buffer lives in.
	Bank int
	// Size is the buffer length in bytes.
	Size int64

	off  int64
	dev  *SmartSSD
	data []byte
}

// ErrDRAMExhausted is returned when a bank cannot fit an allocation.
var ErrDRAMExhausted = errors.New("csd: FPGA DRAM bank exhausted")

// Alloc reserves size bytes in the given DDR bank. Buffers live until
// ResetDRAM; the simple bump allocation mirrors how the host program of the
// paper allocates its buffers once at initialization.
func (s *SmartSSD) Alloc(size int64, bankIdx int) (*Buffer, error) {
	if size <= 0 {
		return nil, fmt.Errorf("csd: allocation size must be positive, got %d", size)
	}
	if bankIdx < 0 || bankIdx >= len(s.banks) {
		return nil, fmt.Errorf("csd: bank %d out of range [0, %d)", bankIdx, len(s.banks))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b := &s.banks[bankIdx]
	if b.used+size > s.bankSize {
		return nil, fmt.Errorf("%w: bank %d has %d of %d bytes free, need %d",
			ErrDRAMExhausted, bankIdx, s.bankSize-b.used, s.bankSize, size)
	}
	buf := &Buffer{Bank: bankIdx, Size: size, off: b.used, dev: s, data: make([]byte, size)}
	b.used += size
	return buf, nil
}

// ResetDRAM releases all buffers (previously returned Buffers become
// invalid).
func (s *SmartSSD) ResetDRAM() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.banks {
		s.banks[i].used = 0
	}
}

// Bytes returns the buffer contents. The slice aliases the buffer; callers
// treat it as the kernel's view of DRAM.
func (b *Buffer) Bytes() []byte { return b.data }

// TransferP2P moves size bytes from SSD offset ssdOff into the buffer using
// the peer-to-peer path through the on-board switch: SSD read plus one
// switch-local link traversal. No bytes cross the host root complex.
func (s *SmartSSD) TransferP2P(ssdOff int64, buf *Buffer) (time.Duration, error) {
	if buf == nil || buf.dev != s {
		return 0, errors.New("csd: buffer does not belong to this device")
	}
	readTime, err := s.drive.Read(ssdOff, buf.data)
	if err != nil {
		return 0, fmt.Errorf("csd: p2p SSD read: %w", err)
	}
	linkTime, err := s.internal.TransferTime(buf.Size)
	if err != nil {
		return 0, fmt.Errorf("csd: p2p link: %w", err)
	}
	s.mu.Lock()
	s.p2pBytes += buf.Size
	s.mu.Unlock()
	s.traceTransfer(buf.Bank, []trace.Event{
		{Track: trace.Track{Name: "ssd"}, Name: "ssd-read", Dur: readTime},
		{Track: trace.Track{Name: "pcie-internal"}, Name: "p2p", Dur: linkTime},
	})
	s.emitTransfer(EvTransferP2P, buf.Size, readTime+linkTime)
	return readTime + linkTime, nil
}

// TransferViaHost moves size bytes from SSD offset ssdOff into the buffer
// along the traditional path: SSD → host memory → FPGA DRAM. The bytes
// cross the root complex twice and pay a host staging copy.
func (s *SmartSSD) TransferViaHost(ssdOff int64, buf *Buffer) (time.Duration, error) {
	if buf == nil || buf.dev != s {
		return 0, errors.New("csd: buffer does not belong to this device")
	}
	readTime, err := s.drive.Read(ssdOff, buf.data)
	if err != nil {
		return 0, fmt.Errorf("csd: host-path SSD read: %w", err)
	}
	up, err := s.host.TransferTime(buf.Size)
	if err != nil {
		return 0, fmt.Errorf("csd: host-path uplink: %w", err)
	}
	down, err := s.host.TransferTime(buf.Size)
	if err != nil {
		return 0, fmt.Errorf("csd: host-path downlink: %w", err)
	}
	stage := time.Duration(float64(buf.Size) / s.hostBW * float64(time.Second))
	s.mu.Lock()
	s.hostBytes += 2 * buf.Size
	s.mu.Unlock()
	s.traceTransfer(buf.Bank, []trace.Event{
		{Track: trace.Track{Name: "ssd"}, Name: "ssd-read", Dur: readTime},
		{Track: trace.Track{Name: "pcie-host"}, Name: "host-up", Dur: up},
		{Track: trace.Track{Name: "host-dram"}, Name: "host-stage", Dur: stage},
		{Track: trace.Track{Name: "pcie-host"}, Name: "host-down", Dur: down},
	})
	s.emitTransfer(EvTransferViaHost, buf.Size, readTime+up+stage+down)
	return readTime + up + stage + down, nil
}

// WriteBuffer moves host data into the buffer over the host link — the
// initialization path that loads weights and embeddings at deployment
// (§III-A's host program "ingests this text file amid initializing the
// FPGA").
func (s *SmartSSD) WriteBuffer(buf *Buffer, data []byte) (time.Duration, error) {
	if buf == nil || buf.dev != s {
		return 0, errors.New("csd: buffer does not belong to this device")
	}
	if int64(len(data)) > buf.Size {
		return 0, fmt.Errorf("csd: %d bytes exceed buffer size %d", len(data), buf.Size)
	}
	copy(buf.data, data)
	t, err := s.host.TransferTime(int64(len(data)))
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.hostBytes += int64(len(data))
	s.mu.Unlock()
	s.traceTransfer(buf.Bank, []trace.Event{
		{Track: trace.Track{Name: "pcie-host"}, Name: "h2d", Dur: t},
	})
	s.emitTransfer(EvTransferH2D, int64(len(data)), t)
	return t, nil
}

// Traffic reports cumulative bytes moved on each path.
type Traffic struct {
	// P2PBytes moved through the on-board switch, invisible to the host.
	P2PBytes int64
	// HostBytes crossed the host root complex.
	HostBytes int64
}

// Traffic returns a snapshot of the traffic counters.
func (s *SmartSSD) Traffic() Traffic {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Traffic{P2PBytes: s.p2pBytes, HostBytes: s.hostBytes}
}

// ItemBytes is the on-flash size of one API-call item (little-endian
// uint32).
const ItemBytes = 4

// EncodeItems serializes API-call IDs in the on-flash format.
func EncodeItems(items []int) ([]byte, error) {
	out := make([]byte, len(items)*ItemBytes)
	if err := putItems(out, items); err != nil {
		return nil, err
	}
	return out, nil
}

// AppendItems appends the on-flash encoding of items to dst and returns the
// extended slice; it allocates only when dst lacks the capacity. On error
// it returns dst unchanged.
func AppendItems(dst []byte, items []int) ([]byte, error) {
	n := len(dst)
	out := slices.Grow(dst, len(items)*ItemBytes)[:n+len(items)*ItemBytes]
	if err := putItems(out[n:], items); err != nil {
		return dst, err
	}
	return out, nil
}

// putItems encodes items into out, which holds exactly len(items) items.
func putItems(out []byte, items []int) error {
	for i, it := range items {
		if it < 0 || it > int(^uint32(0)>>1) {
			return fmt.Errorf("csd: item %d at %d not encodable as uint32", it, i)
		}
		binary.LittleEndian.PutUint32(out[i*ItemBytes:], uint32(it))
	}
	return nil
}

// DecodeItems parses the on-flash format back into item IDs.
func DecodeItems(data []byte) ([]int, error) {
	if len(data)%ItemBytes != 0 {
		return nil, errPartialItem(len(data))
	}
	out := make([]int, len(data)/ItemBytes)
	getItems(out, data)
	return out, nil
}

// AppendDecodedItems parses the on-flash format, appends the item IDs to
// dst and returns the extended slice; it allocates only when dst lacks the
// capacity. On error it returns dst unchanged.
func AppendDecodedItems(dst []int, data []byte) ([]int, error) {
	if len(data)%ItemBytes != 0 {
		return dst, errPartialItem(len(data))
	}
	n := len(dst)
	out := slices.Grow(dst, len(data)/ItemBytes)[:n+len(data)/ItemBytes]
	getItems(out[n:], data)
	return out, nil
}

// getItems decodes data into out, which holds exactly len(data)/ItemBytes
// items.
func getItems(out []int, data []byte) {
	for i := range out {
		out[i] = int(binary.LittleEndian.Uint32(data[i*ItemBytes:]))
	}
}

func errPartialItem(n int) error {
	return fmt.Errorf("csd: %d bytes is not a whole number of items", n)
}

// StoreSequence writes an item sequence to the SSD at the given offset,
// returning the device time (a host-side preparation step in examples and
// benchmarks).
func (s *SmartSSD) StoreSequence(off int64, items []int) (time.Duration, error) {
	data, err := EncodeItems(items)
	if err != nil {
		return 0, err
	}
	return s.drive.Write(off, data)
}
