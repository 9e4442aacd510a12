// Package ssd models the NVMe SSD half of a computational storage drive: a
// page-addressed flash store with NAND-derived latency and bandwidth
// characteristics, plus fault injection for failure-path testing.
//
// The model follows the SmartSSD's PM1733-class drive: multi-channel NAND
// behind a controller, ~90 µs read access latency at queue depth 1 and
// multi-GB/s sequential throughput. Contents are held in memory (sparse page
// map); timing is computed, not slept, so simulations of large workloads run
// fast while reporting realistic device time.
package ssd

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Config describes the drive model.
type Config struct {
	// Capacity is the drive size in bytes; 0 defaults to 4 TB (the
	// SmartSSD's PM1733 capacity).
	Capacity int64
	// ReadLatency is the fixed NAND access latency per read command; 0
	// defaults to 90 µs (PM1733-class QD1 latency).
	ReadLatency time.Duration
	// ReadBandwidth is sequential read throughput in bytes/s; 0 defaults to
	// 7 GB/s (PM1733 sequential read).
	ReadBandwidth float64
}

// The write path and page geometry of the modeled drive.
const (
	// pageSize is the flash page size in bytes.
	pageSize = 4096
	// writeLatency is the fixed program latency per write command
	// (controller-buffered writes).
	writeLatency = 30 * time.Microsecond
	// writeBandwidth is sequential write throughput in bytes/s.
	writeBandwidth = 3.8e9
)

func (c *Config) defaults() {
	if c.Capacity == 0 {
		c.Capacity = 4 << 40
	}
	if c.ReadLatency == 0 {
		c.ReadLatency = 90 * time.Microsecond
	}
	if c.ReadBandwidth == 0 {
		c.ReadBandwidth = 7e9
	}
}

func (c *Config) validate() error {
	if c.Capacity < 0 {
		return fmt.Errorf("ssd: negative capacity %d", c.Capacity)
	}
	if c.ReadBandwidth < 0 {
		return errors.New("ssd: negative bandwidth")
	}
	return nil
}

// Drive is a simulated NVMe SSD. It is safe for concurrent use.
type Drive struct {
	cfg Config

	mu          sync.Mutex
	pages       map[int64][]byte // page index -> page contents
	failReads   map[int64]error  // injected read faults by page index
	reads       int64            // statistics
	writes      int64
	readBytes   int64
	quarantined bool
}

// New returns an empty drive with the given configuration.
func New(cfg Config) (*Drive, error) {
	cfg.defaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Drive{
		cfg:       cfg,
		pages:     make(map[int64][]byte),
		failReads: make(map[int64]error),
	}, nil
}

// Config returns the drive's configuration (with defaults applied).
func (d *Drive) Config() Config { return d.cfg }

// ErrOutOfRange is returned for accesses beyond the drive capacity.
var ErrOutOfRange = errors.New("ssd: access beyond drive capacity")

// ErrMediaFault is the base error for injected read faults.
var ErrMediaFault = errors.New("ssd: uncorrectable media error")

// ErrQuarantined is returned by Write while the drive's write quarantine is
// engaged — the in-storage mitigation the paper's detector triggers to
// "immediately thwart any subsequent encryption by the malware" (§IV).
// Reads continue to succeed, so clean data remains accessible.
var ErrQuarantined = errors.New("ssd: write quarantine engaged")

func (d *Drive) checkRange(off int64, n int) error {
	if off < 0 || n < 0 || off+int64(n) > d.cfg.Capacity {
		return fmt.Errorf("%w: offset %d length %d capacity %d", ErrOutOfRange, off, n, d.cfg.Capacity)
	}
	return nil
}

// Write stores p at byte offset off and returns the simulated device time.
func (d *Drive) Write(off int64, p []byte) (time.Duration, error) {
	if err := d.checkRange(off, len(p)); err != nil {
		return 0, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.quarantined {
		return 0, ErrQuarantined
	}
	for i := 0; i < len(p); {
		page := (off + int64(i)) / pageSize
		inPage := int((off + int64(i)) % pageSize)
		n := min(len(p)-i, pageSize-inPage)
		buf, ok := d.pages[page]
		if !ok {
			buf = make([]byte, pageSize)
			d.pages[page] = buf
		}
		copy(buf[inPage:inPage+n], p[i:i+n])
		i += n
	}
	d.writes++
	return writeLatency + d.xferTime(len(p), writeBandwidth), nil
}

// Read fills p from byte offset off and returns the simulated device time.
// Unwritten regions read as zeros, as a trimmed flash region does.
func (d *Drive) Read(off int64, p []byte) (time.Duration, error) {
	if err := d.checkRange(off, len(p)); err != nil {
		return 0, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := 0; i < len(p); {
		page := (off + int64(i)) / pageSize
		if err, faulty := d.failReads[page]; faulty {
			return 0, fmt.Errorf("page %d: %w", page, err)
		}
		inPage := int((off + int64(i)) % pageSize)
		n := min(len(p)-i, pageSize-inPage)
		if buf, ok := d.pages[page]; ok {
			copy(p[i:i+n], buf[inPage:inPage+n])
		} else {
			clear(p[i : i+n])
		}
		i += n
	}
	d.reads++
	d.readBytes += int64(len(p))
	return d.cfg.ReadLatency + d.xferTime(len(p), d.cfg.ReadBandwidth), nil
}

func (d *Drive) xferTime(n int, bw float64) time.Duration {
	if bw <= 0 {
		return 0
	}
	return time.Duration(float64(n) / bw * float64(time.Second))
}

// InjectReadFault makes every read touching the page at byte offset off fail
// with ErrMediaFault until ClearFaults is called. It models an uncorrectable
// NAND error for failure-path tests.
func (d *Drive) InjectReadFault(off int64) error {
	if err := d.checkRange(off, 1); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failReads[off/pageSize] = ErrMediaFault
	return nil
}

// ClearFaults removes all injected faults.
func (d *Drive) ClearFaults() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failReads = make(map[int64]error)
}

// Quarantine engages (or releases) the drive's write quarantine.
func (d *Drive) Quarantine(on bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.quarantined = on
}

// Quarantined reports whether the write quarantine is engaged.
func (d *Drive) Quarantined() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.quarantined
}

// Stats reports cumulative operation counts.
type Stats struct {
	Reads, Writes, ReadBytes int64
}

// Stats returns a snapshot of the drive's counters.
func (d *Drive) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Stats{Reads: d.reads, Writes: d.writes, ReadBytes: d.readBytes}
}
