package ssd

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func newTestDrive(t *testing.T) *Drive {
	t.Helper()
	d, err := New(Config{Capacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDefaults(t *testing.T) {
	d, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := d.Config()
	if cfg.Capacity != 4<<40 {
		t.Errorf("default capacity = %d, want 4 TB (PM1733)", cfg.Capacity)
	}
	if cfg.ReadLatency != 90*time.Microsecond {
		t.Errorf("default read latency = %v", cfg.ReadLatency)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Capacity: -1}); err == nil {
		t.Error("negative capacity: expected error")
	}
	if _, err := New(Config{ReadBandwidth: -5}); err == nil {
		t.Error("negative bandwidth: expected error")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := newTestDrive(t)
	data := []byte("CreateFileW ReadFile CryptEncrypt WriteFile MoveFileW")
	if _, err := d.Write(100, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := d.Read(100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip: got %q, want %q", got, data)
	}
}

func TestCrossPageAccess(t *testing.T) {
	d := newTestDrive(t)
	data := make([]byte, 10_000) // spans 3 pages
	for i := range data {
		data[i] = byte(i)
	}
	off := int64(4090) // starts near a page boundary
	if _, err := d.Write(off, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := d.Read(off, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page round trip corrupted data")
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	d := newTestDrive(t)
	p := []byte{1, 2, 3}
	if _, err := d.Read(5000, p); err != nil {
		t.Fatal(err)
	}
	for i, b := range p {
		if b != 0 {
			t.Fatalf("unwritten byte %d = %d, want 0", i, b)
		}
	}
}

func TestRangeChecks(t *testing.T) {
	d := newTestDrive(t)
	buf := make([]byte, 10)
	if _, err := d.Read(-1, buf); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("negative offset error = %v", err)
	}
	if _, err := d.Write(1<<20-5, buf); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("overflow write error = %v", err)
	}
	if _, err := d.Read(1<<20, buf[:1]); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("read at capacity error = %v", err)
	}
}

func TestTimingModel(t *testing.T) {
	d, err := New(Config{Capacity: 1 << 30, ReadLatency: 90 * time.Microsecond, ReadBandwidth: 7e9})
	if err != nil {
		t.Fatal(err)
	}
	small := make([]byte, 400) // a 100-item sequence of int32s
	tSmall, err := d.Read(0, small)
	if err != nil {
		t.Fatal(err)
	}
	// Latency-dominated: ~90 µs.
	if tSmall < 90*time.Microsecond || tSmall > 92*time.Microsecond {
		t.Fatalf("small read time = %v, want ~90µs", tSmall)
	}
	big := make([]byte, 70_000_000) // 70 MB -> ~10 ms at 7 GB/s
	tBig, err := d.Read(0, big)
	if err != nil {
		t.Fatal(err)
	}
	if tBig < 9*time.Millisecond || tBig > 12*time.Millisecond {
		t.Fatalf("70MB read time = %v, want ~10ms", tBig)
	}
}

func TestFaultInjection(t *testing.T) {
	d := newTestDrive(t)
	if _, err := d.Write(0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := d.InjectReadFault(0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Read(0, make([]byte, 3)); !errors.Is(err, ErrMediaFault) {
		t.Fatalf("error = %v, want ErrMediaFault", err)
	}
	// Other pages unaffected.
	if _, err := d.Read(8192, make([]byte, 3)); err != nil {
		t.Fatalf("unrelated page failed: %v", err)
	}
	d.ClearFaults()
	if _, err := d.Read(0, make([]byte, 3)); err != nil {
		t.Fatalf("fault persisted after clear: %v", err)
	}
	if err := d.InjectReadFault(1 << 30); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("out-of-range fault injection error = %v", err)
	}
}

func TestStats(t *testing.T) {
	d := newTestDrive(t)
	if _, err := d.Write(0, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Read(0, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.Reads != 1 || s.Writes != 1 || s.ReadBytes != 100 {
		t.Fatalf("stats = %+v", s)
	}
}

// Property: any write followed by a read of the same range returns the same
// bytes.
func TestPropWriteReadConsistency(t *testing.T) {
	d := newTestDrive(t)
	f := func(offRaw uint16, data []byte) bool {
		off := int64(offRaw)
		if len(data) == 0 {
			return true
		}
		if _, err := d.Write(off, data); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if _, err := d.Read(off, got); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	d := newTestDrive(t)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			off := int64(g * 8192)
			data := bytes.Repeat([]byte{byte(g + 1)}, 4096)
			for i := 0; i < 20; i++ {
				if _, err := d.Write(off, data); err != nil {
					done <- err
					return
				}
				got := make([]byte, 4096)
				if _, err := d.Read(off, got); err != nil {
					done <- err
					return
				}
				if !bytes.Equal(got, data) {
					done <- errors.New("corrupted concurrent read")
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestWriteQuarantine(t *testing.T) {
	d := newTestDrive(t)
	if d.Quarantined() {
		t.Fatal("fresh drive quarantined")
	}
	if _, err := d.Write(0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	d.Quarantine(true)
	if !d.Quarantined() {
		t.Fatal("quarantine not engaged")
	}
	if _, err := d.Write(0, []byte{2}); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("write under quarantine: error = %v, want ErrQuarantined", err)
	}
	// Reads stay available: clean data remains accessible.
	got := make([]byte, 1)
	if _, err := d.Read(0, got); err != nil {
		t.Fatalf("read under quarantine failed: %v", err)
	}
	if got[0] != 1 {
		t.Fatalf("data changed under quarantine: %d", got[0])
	}
	d.Quarantine(false)
	if _, err := d.Write(0, []byte{3}); err != nil {
		t.Fatalf("write after release failed: %v", err)
	}
}
