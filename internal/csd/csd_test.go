package csd

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"github.com/kfrida1/csdinf/internal/ssd"
)

func newDevice(t *testing.T) *SmartSSD {
	t.Helper()
	s, err := New(Config{SSD: ssd.Config{Capacity: 16 << 20}, DRAMBytes: 1 << 20, DRAMBanks: 2})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDefaults(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Banks() != 2 {
		t.Errorf("default banks = %d, want 2 (paper §III-C)", s.Banks())
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{DRAMBanks: -1}); err == nil {
		t.Error("negative banks: expected error")
	}
	if _, err := New(Config{DRAMBytes: -1}); err == nil {
		t.Error("negative DRAM: expected error")
	}
	if _, err := New(Config{SSD: ssd.Config{Capacity: -1}}); err == nil {
		t.Error("bad SSD config: expected error")
	}
}

func TestAllocBanks(t *testing.T) {
	s := newDevice(t)
	a, err := s.Alloc(1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Bank != 0 || a.Size != 1024 {
		t.Fatalf("buffer = %+v", a)
	}
	if _, err := s.Alloc(1024, 2); err == nil {
		t.Error("bank out of range: expected error")
	}
	if _, err := s.Alloc(0, 0); err == nil {
		t.Error("zero size: expected error")
	}
	// Exhaust bank 1 (512 KiB per bank).
	if _, err := s.Alloc(512<<10, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc(1, 1); !errors.Is(err, ErrDRAMExhausted) {
		t.Errorf("exhaustion error = %v", err)
	}
	s.ResetDRAM()
	if _, err := s.Alloc(512<<10, 1); err != nil {
		t.Fatalf("alloc after reset failed: %v", err)
	}
}

func TestTransferP2PMovesData(t *testing.T) {
	s := newDevice(t)
	seq := []int{5, 10, 277, 0, 42}
	if _, err := s.StoreSequence(4096, seq); err != nil {
		t.Fatal(err)
	}
	buf, err := s.Alloc(int64(len(seq)*ItemBytes), 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.TransferP2P(4096, buf)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("no time charged for P2P transfer")
	}
	got, err := DecodeItems(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if got[i] != seq[i] {
			t.Fatalf("item %d = %d, want %d", i, got[i], seq[i])
		}
	}
}

func TestP2PFasterAndQuieterThanHostPath(t *testing.T) {
	s := newDevice(t)
	data := make([]int, 2048)
	if _, err := s.StoreSequence(0, data); err != nil {
		t.Fatal(err)
	}
	bufA, err := s.Alloc(int64(len(data)*ItemBytes), 0)
	if err != nil {
		t.Fatal(err)
	}
	bufB, err := s.Alloc(int64(len(data)*ItemBytes), 1)
	if err != nil {
		t.Fatal(err)
	}
	p2p, err := s.TransferP2P(0, bufA)
	if err != nil {
		t.Fatal(err)
	}
	host, err := s.TransferViaHost(0, bufB)
	if err != nil {
		t.Fatal(err)
	}
	if p2p >= host {
		t.Fatalf("P2P %v not faster than host path %v", p2p, host)
	}
	tr := s.Traffic()
	if tr.P2PBytes != bufA.Size {
		t.Errorf("P2P bytes = %d, want %d", tr.P2PBytes, bufA.Size)
	}
	// Host path crosses the root complex twice.
	if tr.HostBytes != 2*bufB.Size {
		t.Errorf("host bytes = %d, want %d", tr.HostBytes, 2*bufB.Size)
	}
}

func TestTransferForeignBufferRejected(t *testing.T) {
	s1, s2 := newDevice(t), newDevice(t)
	buf, err := s2.Alloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.TransferP2P(0, buf); err == nil {
		t.Error("foreign buffer accepted by TransferP2P")
	}
	if _, err := s1.TransferViaHost(0, buf); err == nil {
		t.Error("foreign buffer accepted by TransferViaHost")
	}
	if _, err := s1.WriteBuffer(nil, nil); err == nil {
		t.Error("nil buffer accepted by WriteBuffer")
	}
}

func TestTransferPropagatesSSDFault(t *testing.T) {
	s := newDevice(t)
	if err := s.SSD().InjectReadFault(0); err != nil {
		t.Fatal(err)
	}
	buf, err := s.Alloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.TransferP2P(0, buf); !errors.Is(err, ssd.ErrMediaFault) {
		t.Fatalf("error = %v, want wrapped ErrMediaFault", err)
	}
}

func TestWriteReadBuffer(t *testing.T) {
	s := newDevice(t)
	buf, err := s.Alloc(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("weights+biases!!")
	if _, err := s.WriteBuffer(buf, payload); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, payload) {
		t.Fatalf("round trip = %q", got)
	}
	if _, err := s.WriteBuffer(buf, make([]byte, 17)); err == nil {
		t.Error("oversized write accepted")
	}
}

func TestEncodeDecodeItems(t *testing.T) {
	seq := []int{0, 1, 277, 1 << 20}
	data, err := EncodeItems(seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != len(seq)*ItemBytes {
		t.Fatalf("encoded length = %d", len(data))
	}
	got, err := DecodeItems(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if got[i] != seq[i] {
			t.Fatalf("item %d = %d, want %d", i, got[i], seq[i])
		}
	}
	if _, err := EncodeItems([]int{-1}); err == nil {
		t.Error("negative item encoded")
	}
	if _, err := DecodeItems(make([]byte, 5)); err == nil {
		t.Error("ragged byte slice decoded")
	}
}

// Property: encode/decode round-trips arbitrary valid item IDs.
func TestPropEncodeDecodeRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		seq := make([]int, len(raw))
		for i, r := range raw {
			seq[i] = int(r)
		}
		data, err := EncodeItems(seq)
		if err != nil {
			return false
		}
		got, err := DecodeItems(data)
		if err != nil || len(got) != len(seq) {
			return false
		}
		for i := range seq {
			if got[i] != seq[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
