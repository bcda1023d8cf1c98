package ssd

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"mvpbt/internal/simclock"
)

func newDev() *Device {
	return New(simclock.New(), IntelP3600)
}

func TestReadWriteRoundTrip(t *testing.T) {
	d := newDev()
	data := []byte("hello, flash translation layer")
	d.WriteAt(data, 12345)
	got := make([]byte, len(data))
	d.ReadAt(got, 12345)
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: %q != %q", got, data)
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	d := newDev()
	p := make([]byte, 64)
	for i := range p {
		p[i] = 0xFF
	}
	d.ReadAt(p, 9999999)
	for i, b := range p {
		if b != 0 {
			t.Fatalf("byte %d not zero: %x", i, b)
		}
	}
}

func TestCrossBlockWrite(t *testing.T) {
	d := newDev()
	data := make([]byte, 3*storeBlock)
	for i := range data {
		data[i] = byte(i * 7)
	}
	off := int64(storeBlock - 100) // straddles several internal blocks
	d.WriteAt(data, off)
	got := make([]byte, len(data))
	d.ReadAt(got, off)
	if !bytes.Equal(got, data) {
		t.Fatal("cross-block round trip mismatch")
	}
}

func TestSequentialClassification(t *testing.T) {
	d := newDev()
	buf := make([]byte, 8192)
	d.WriteAt(buf, 0)     // first write: random (no predecessor)
	d.WriteAt(buf, 8192)  // adjacent: sequential
	d.WriteAt(buf, 16384) // adjacent: sequential
	d.WriteAt(buf, 65536) // gap: random
	s := d.Stats()
	if s.SeqWrites != 2 || s.RandWrites != 2 {
		t.Fatalf("classification wrong: seq=%d rand=%d", s.SeqWrites, s.RandWrites)
	}
}

func TestReadWriteStreamsIndependent(t *testing.T) {
	d := newDev()
	buf := make([]byte, 8192)
	d.WriteAt(buf, 0)
	d.ReadAt(buf, 1<<20) // interleaved read must not break the write stream
	d.WriteAt(buf, 8192)
	s := d.Stats()
	if s.SeqWrites != 1 {
		t.Fatalf("interleaved read broke write stream: seq=%d", s.SeqWrites)
	}
}

func TestLatencyAsymmetry(t *testing.T) {
	// The defining property: random 8K writes are much slower than random
	// 8K reads, and sequential writes much faster than random writes at 64K.
	if IntelP3600.WriteRand8 < 10*IntelP3600.ReadRand8 {
		t.Fatalf("random write should be >=10x random read: %v vs %v",
			IntelP3600.WriteRand8, IntelP3600.ReadRand8)
	}
	if IntelP3600.WriteRand64 < 10*IntelP3600.WriteSeq64 {
		t.Fatalf("random 64K write should be >=10x sequential: %v vs %v",
			IntelP3600.WriteRand64, IntelP3600.WriteSeq64)
	}
}

func TestClockAdvances(t *testing.T) {
	clk := simclock.New()
	d := New(clk, IntelP3600)
	buf := make([]byte, 8192)
	d.ReadAt(buf, 0)
	want := IntelP3600.ReadRand8
	if clk.Now() != want {
		t.Fatalf("clock advanced %v want %v", clk.Now(), want)
	}
	d.ReadAt(buf, 8192) // sequential
	if clk.Now() != want+IntelP3600.ReadSeq8 {
		t.Fatalf("clock advanced %v want %v", clk.Now(), want+IntelP3600.ReadSeq8)
	}
}

func TestLatencyInterpolation(t *testing.T) {
	lat8, lat64 := 8*time.Microsecond, 40*time.Microsecond
	if got := latency(lat8, lat64, 8<<10); got != lat8 {
		t.Fatalf("8K latency %v want %v", got, lat8)
	}
	if got := latency(lat8, lat64, 64<<10); got != lat64 {
		t.Fatalf("64K latency %v want %v", got, lat64)
	}
	if got := latency(lat8, lat64, 4<<10); got != lat8/2 {
		t.Fatalf("4K latency %v want %v", got, lat8/2)
	}
	mid := latency(lat8, lat64, 36<<10)
	if mid <= lat8 || mid >= lat64 {
		t.Fatalf("36K latency %v not between %v and %v", mid, lat8, lat64)
	}
	big := latency(lat8, lat64, 128<<10)
	if big <= lat64 {
		t.Fatalf("128K latency %v not above %v", big, lat64)
	}
	if latency(lat8, lat64, 0) != 0 {
		t.Fatal("zero-length latency not zero")
	}
}

func TestLatencyMonotone(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := int(a)+1, int(b)+1
		if x > y {
			x, y = y, x
		}
		lx := latency(IntelP3600.WriteSeq8, IntelP3600.WriteSeq64, x*512)
		ly := latency(IntelP3600.WriteSeq8, IntelP3600.WriteSeq64, y*512)
		return lx <= ly
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTrace(t *testing.T) {
	d := newDev()
	d.SetTracing(true)
	buf := make([]byte, 8192)
	d.WriteAt(buf, 0)
	d.WriteAt(buf, 8192)
	d.ReadAt(buf, 0)
	tr := d.Trace()
	if len(tr) != 3 {
		t.Fatalf("trace length %d want 3", len(tr))
	}
	if tr[0].Op != OpWrite || tr[0].LBA != 0 || tr[0].Seq {
		t.Fatalf("entry 0 wrong: %+v", tr[0])
	}
	if tr[1].LBA != 8192/SectorSize || !tr[1].Seq {
		t.Fatalf("entry 1 wrong: %+v", tr[1])
	}
	if tr[2].Op != OpRead {
		t.Fatalf("entry 2 wrong: %+v", tr[2])
	}
	d.SetTracing(false)
	d.WriteAt(buf, 0)
	if len(d.Trace()) != 3 {
		t.Fatal("tracing kept recording after disable")
	}
}

func TestStatsSubAndReset(t *testing.T) {
	d := newDev()
	buf := make([]byte, 8192)
	d.WriteAt(buf, 0)
	before := d.Stats()
	d.WriteAt(buf, 8192)
	delta := d.Stats().Sub(before)
	if delta.Writes != 1 || delta.BytesWritten != 8192 {
		t.Fatalf("delta wrong: %+v", delta)
	}
	d.ResetStats()
	if s := d.Stats(); s.Writes != 0 || s.Reads != 0 {
		t.Fatalf("reset failed: %+v", s)
	}
}

func TestDiscard(t *testing.T) {
	d := newDev()
	buf := make([]byte, storeBlock)
	for i := range buf {
		buf[i] = 0xAB
	}
	d.WriteAt(buf, 0)
	d.WriteAt(buf, storeBlock)
	d.Discard(0, storeBlock)
	got := make([]byte, storeBlock)
	d.ReadAt(got, 0)
	for _, b := range got {
		if b != 0 {
			t.Fatal("discarded block not zeroed")
		}
	}
	d.ReadAt(got, storeBlock)
	if got[0] != 0xAB {
		t.Fatal("discard released the wrong block")
	}
}

func TestConcurrentAccess(t *testing.T) {
	d := newDev()
	done := make(chan bool)
	for g := 0; g < 4; g++ {
		go func(g int) {
			buf := make([]byte, 4096)
			for i := 0; i < 200; i++ {
				d.WriteAt(buf, int64(g*1000+i)*4096)
				d.ReadAt(buf, int64(g*1000+i)*4096)
			}
			done <- true
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if s := d.Stats(); s.Writes != 800 || s.Reads != 800 {
		t.Fatalf("concurrent counters wrong: %+v", s)
	}
}

// TestDiscardedBlocksAreRecycledZeroed: Discard keeps the released blocks for
// reuse, and a recycled block that a write covers only partly still reads
// zeros everywhere else — on the device, not just in the block it used to be.
func TestDiscardedBlocksAreRecycledZeroed(t *testing.T) {
	d := newDev()
	full := bytes.Repeat([]byte{0xAB}, 4*storeBlock)
	d.WriteAt(full, 0)
	d.WriteAt(full, 50*storeBlock) // stays
	d.Discard(0, 4*storeBlock)
	if len(d.spare) != 4 {
		t.Fatalf("%d blocks kept for reuse, want 4", len(d.spare))
	}
	part := bytes.Repeat([]byte{0xCD}, 1000)
	d.WriteAt(part, 10*storeBlock+500) // a recycled block, partly written, at another address
	d.WriteAt(full[:storeBlock], 20*storeBlock)
	d.WriteAt(part, 30*storeBlock+storeBlock-500) // straddles two blocks
	got := make([]byte, 2*storeBlock)
	for _, c := range []struct {
		off    int64
		lo, hi int // got[lo:hi] holds fill, the rest zeros
		fill   byte
		what   string
	}{
		{0, 0, 0, 0, "discarded range"},
		{10 * storeBlock, 500, 1500, 0xCD, "partly rewritten recycled block"},
		{20 * storeBlock, 0, storeBlock, 0xAB, "fully rewritten recycled block"},
		{30 * storeBlock, storeBlock - 500, storeBlock + 500, 0xCD, "write straddling two blocks"},
	} {
		d.ReadAt(got, c.off)
		for i, b := range got {
			want := byte(0)
			if i >= c.lo && i < c.hi {
				want = c.fill
			}
			if b != want {
				t.Fatalf("%s: byte %d reads %#x, want %#x", c.what, i, b, want)
			}
		}
	}
}

// TestWriteDiscardCycleAllocatesNothing: a steady write→discard cycle (log
// rotation, partition merges) next to data that stays runs out of the
// device's recycled blocks.
func TestWriteDiscardCycleAllocatesNothing(t *testing.T) {
	d := newDev()
	buf := make([]byte, 4*storeBlock)
	d.WriteAt(buf, 100*storeBlock)
	d.WriteAt(buf, 104*storeBlock)
	cycle := func() {
		d.WriteAt(buf, 0)
		d.WriteAt(buf[:100], 8*storeBlock+7)
		d.Discard(0, 16*storeBlock)
	}
	cycle()
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Fatalf("%.1f allocs per write→discard cycle, want 0", got)
	}
}

// TestSpareBlocksBounded: the recycling list holds no more blocks than the
// device stores or one extent's worth, whichever is more, so discarding most
// of a device releases most of its memory, and a device holding little
// still recycles what a build and free of a partition turn over.
func TestSpareBlocksBounded(t *testing.T) {
	d := newDev()
	buf := make([]byte, 128*storeBlock)
	d.WriteAt(buf, 0)
	d.Discard(48*storeBlock, 80*storeBlock)
	if len(d.blocks) != 48 || len(d.spare) != 48 {
		t.Fatalf("%d blocks stored, %d spare; want 48 and 48", len(d.blocks), len(d.spare))
	}
	d.Discard(0, 48*storeBlock)
	if len(d.spare) != 32 {
		t.Fatalf("%d spare blocks on an empty device, want 32", len(d.spare))
	}
}
