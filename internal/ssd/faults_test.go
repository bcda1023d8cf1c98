package ssd

import (
	"bytes"
	"errors"
	"testing"

	"mvpbt/internal/simclock"
	"mvpbt/internal/storage"
)

func TestReadErrorSchedule(t *testing.T) {
	d := newDev()
	buf := make([]byte, 4096)
	d.WriteAt(buf, 0)
	// Fire on the 2nd matching read only.
	d.ArmFault(FaultRule{Kind: FaultReadErr, Class: AnyClass, Ops: []uint64{2}})
	if err := d.ReadAt(buf, 0); err != nil {
		t.Fatalf("read 1 should succeed: %v", err)
	}
	err := d.ReadAt(buf, 0)
	if !errors.Is(err, storage.ErrIOFault) {
		t.Fatalf("read 2 should fail with ErrIOFault, got %v", err)
	}
	// Schedule exhausted: rule disarmed itself.
	if err := d.ReadAt(buf, 0); err != nil {
		t.Fatalf("read 3 should succeed: %v", err)
	}
	c := d.Stats().Faults
	if c.Injected[FaultReadErr] != 1 {
		t.Fatalf("counters wrong: %+v", c)
	}
}

func TestStickyWriteErrorAndDisarm(t *testing.T) {
	d := newDev()
	buf := []byte("payload")
	id := d.ArmFault(FaultRule{Kind: FaultWriteErr, Class: AnyClass, Sticky: true})
	for i := 0; i < 3; i++ {
		if err := d.WriteAt(buf, 512); !errors.Is(err, storage.ErrIOFault) {
			t.Fatalf("write %d should fail, got %v", i, err)
		}
	}
	// Nothing persisted.
	got := make([]byte, len(buf))
	if err := d.ReadAt(got, 512); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("failed write leaked to media")
		}
	}
	d.DisarmFault(id)
	if err := d.WriteAt(buf, 512); err != nil {
		t.Fatalf("write after disarm should succeed: %v", err)
	}
	if c := d.Stats().Faults; c.Injected[FaultWriteErr] != 3 {
		t.Fatalf("counters wrong: %+v", c)
	}
}

func TestTornWritePersistsPrefixKeepsOldTail(t *testing.T) {
	d := newDev()
	old := bytes.Repeat([]byte{0xAA}, 4*SectorSize)
	if err := d.WriteAt(old, 0); err != nil {
		t.Fatal(err)
	}
	d.ArmFault(FaultRule{Kind: FaultTornWrite, Class: AnyClass, Ops: []uint64{1}, TornSectors: 1})
	nw := bytes.Repeat([]byte{0xBB}, 4*SectorSize)
	if err := d.WriteAt(nw, 0); !errors.Is(err, storage.ErrIOFault) {
		t.Fatalf("torn write should report a fault, got %v", err)
	}
	got := make([]byte, 4*SectorSize)
	if err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		want := byte(0xBB)
		if i >= SectorSize {
			want = 0xAA // unpersisted sectors keep the OLD content, not zeros
		}
		if b != want {
			t.Fatalf("byte %d = %#x want %#x", i, b, want)
		}
	}
}

func TestBitFlipIsPersistent(t *testing.T) {
	d := newDev()
	data := make([]byte, 1024)
	if err := d.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	d.ArmFault(FaultRule{Kind: FaultBitFlip, Class: AnyClass, Ops: []uint64{1}, ByteOffset: 7, BitMask: 0x10})
	got := make([]byte, 1024)
	if err := d.ReadAt(got, 0); err != nil {
		t.Fatalf("bit-flip read should succeed: %v", err)
	}
	if got[7] != 0x10 {
		t.Fatalf("flipped byte = %#x want 0x10", got[7])
	}
	// The rot is in the media: a second (clean) read sees the same value.
	if err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if got[7] != 0x10 {
		t.Fatalf("bit flip did not persist: byte = %#x", got[7])
	}
}

func TestFaultScopingByClass(t *testing.T) {
	d := newDev()
	// Classify offsets >= 1 MiB as class 1, below as class 0.
	d.SetClassifier(func(off int64) int {
		if off >= 1<<20 {
			return 1
		}
		return 0
	})
	buf := make([]byte, 512)
	d.ArmFault(FaultRule{Kind: FaultWriteErr, Class: 1, Sticky: true})
	if err := d.WriteAt(buf, 0); err != nil {
		t.Fatalf("class-0 write should pass: %v", err)
	}
	if err := d.WriteAt(buf, 1<<20); !errors.Is(err, storage.ErrIOFault) {
		t.Fatalf("class-1 write should fail, got %v", err)
	}
}

func TestFaultDeterminism(t *testing.T) {
	run := func() (FaultCounters, []byte) {
		d := New(simclock.New(), IntelP3600)
		d.ArmFault(FaultRule{Kind: FaultWriteErr, Class: AnyClass, Ops: []uint64{2, 5}})
		d.ArmFault(FaultRule{Kind: FaultBitFlip, Class: AnyClass, Ops: []uint64{3}, ByteOffset: 11, BitMask: 0x80})
		buf := make([]byte, 1024)
		for i := range buf {
			buf[i] = byte(i)
		}
		for i := 0; i < 8; i++ {
			d.WriteAt(buf, int64(i)*1024)
		}
		out := make([]byte, 8*1024)
		for i := 0; i < 8; i++ {
			d.ReadAt(out[i*1024:(i+1)*1024], int64(i)*1024)
		}
		return d.Stats().Faults, out
	}
	c1, m1 := run()
	c2, m2 := run()
	if c1 != c2 {
		t.Fatalf("fault counters diverged: %+v vs %+v", c1, c2)
	}
	if !bytes.Equal(m1, m2) {
		t.Fatal("media state diverged between identical runs")
	}
	if c1.Injected[FaultWriteErr] != 2 || c1.Injected[FaultBitFlip] != 1 {
		t.Fatalf("unexpected counters: %+v", c1)
	}
}
