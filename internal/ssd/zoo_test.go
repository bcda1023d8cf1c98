package ssd

import (
	"bytes"
	"testing"
	"time"

	"mvpbt/internal/simclock"
)

func TestZooRegistry(t *testing.T) {
	want := []string{"enterprise-nvme", "consumer-tlc", "zns", "cloud-block"}
	names := ZooNames()
	if len(names) != len(want) {
		t.Fatalf("zoo has %d devices, want %d", len(names), len(want))
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("zoo[%d] = %q, want %q", i, names[i], n)
		}
		spec, ok := SpecByName(n)
		if !ok || spec.Name != n {
			t.Fatalf("SpecByName(%q) = %+v, %v", n, spec, ok)
		}
	}
	if _, ok := SpecByName("floppy"); ok {
		t.Fatal("SpecByName accepted an unknown device")
	}
	if EnterpriseNVMe.Profile != IntelP3600 {
		t.Fatal("enterprise-nvme must keep the paper's P3600 calibration")
	}
}

// The zero spec must behave exactly like the historical default device.
func TestZeroSpecIsDefaultDevice(t *testing.T) {
	d := NewWithSpec(simclock.New(), DeviceSpec{})
	if d.Spec().Profile != IntelP3600 {
		t.Fatalf("zero-spec profile = %+v, want IntelP3600", d.Spec().Profile)
	}
	if d.Spec().Mode != ModeBlock {
		t.Fatalf("zero-spec mode = %v, want block", d.Spec().Mode)
	}
}

func TestZNSShimAppendRedirectReset(t *testing.T) {
	clk := simclock.New()
	d := NewWithSpec(clk, ZNSAppend)
	zb := d.Spec().ZoneBytes
	buf := bytes.Repeat([]byte{0xAB}, 8192)

	// Two appends at the write pointer.
	if err := d.WriteAt(buf, 0); err != nil {
		t.Fatalf("append 1: %v", err)
	}
	if err := d.WriteAt(buf, 8192); err != nil {
		t.Fatalf("append 2: %v", err)
	}
	z := d.Stats()
	if z.ZoneAppends != 2 || z.ZoneRedirects != 0 {
		t.Fatalf("after appends: %+v", z)
	}

	// An in-place overwrite: absorbed by the shim, counted, and costlier
	// than the append it replaces (data re-append + mapping block).
	before := clk.Now()
	if err := d.WriteAt(buf, 0); err != nil {
		t.Fatalf("overwrite via shim: %v", err)
	}
	redirCost := clk.Now() - before
	z = d.Stats()
	if z.ZoneRedirects != 1 || z.ZoneRedirectBytes != 8192 {
		t.Fatalf("after overwrite: %+v", z)
	}
	appendCost := latency(ZNSAppend.Profile.WriteSeq8, ZNSAppend.Profile.WriteSeq64, 8192)
	if redirCost <= appendCost {
		t.Fatalf("redirect cost %v not above append cost %v", redirCost, appendCost)
	}
	// The overwrite must still be readable (the shim remaps, not rejects).
	got := make([]byte, 8192)
	if err := d.ReadAt(got, 0); err != nil || !bytes.Equal(got, buf) {
		t.Fatalf("read after shim overwrite: err=%v equal=%v", err, bytes.Equal(got, buf))
	}

	// A whole-zone discard rewinds the write pointer: the next write at the
	// zone base is an append again.
	d.Discard(0, zb)
	z = d.Stats()
	if z.ZoneResets != 1 {
		t.Fatalf("after whole-zone discard: %+v", z)
	}
	if err := d.WriteAt(buf, 0); err != nil {
		t.Fatalf("append after reset: %v", err)
	}
	z = d.Stats()
	if z.ZoneAppends != 3 || z.ZoneRedirects != 1 {
		t.Fatalf("after post-reset append: %+v", z)
	}

	// A partial-zone discard must NOT reset the pointer.
	d.Discard(0, zb/2)
	if z := d.Stats(); z.ZoneResets != 1 {
		t.Fatalf("partial discard reset a zone: %+v", z)
	}

	// Zones are independent: the first write into the next zone is an append.
	if err := d.WriteAt(buf, zb); err != nil {
		t.Fatalf("append in second zone: %v", err)
	}
	if z := d.Stats(); z.ZoneAppends != 4 || z.ZoneRedirects != 1 {
		t.Fatalf("after second-zone append: %+v", z)
	}
}

func TestCloudThrottleBurstThenStall(t *testing.T) {
	spec := CloudBlock
	spec.BaseIOPS = 100
	spec.BurstOps = 4
	clk := simclock.New()
	d := NewWithSpec(clk, spec)
	buf := make([]byte, 4096)

	// The first BurstOps I/Os ride the full bucket: no stalls.
	for i := 0; i < 4; i++ {
		if err := d.WriteAt(buf, int64(i)*4096); err != nil {
			t.Fatalf("burst write %d: %v", i, err)
		}
	}
	c := d.Stats()
	if c.ThrottledOps != 4 || c.Stalls != 0 {
		t.Fatalf("after burst: %+v", c)
	}

	// Beyond the burst the bucket is (nearly) dry: ops stall at ~BaseIOPS
	// pacing, charged to the virtual clock.
	before := clk.Now()
	for i := 4; i < 14; i++ {
		if err := d.WriteAt(buf, int64(i)*4096); err != nil {
			t.Fatalf("throttled write %d: %v", i, err)
		}
	}
	c = d.Stats()
	if c.Stalls == 0 || c.StallTime == 0 {
		t.Fatalf("sustained overload did not stall: %+v", c)
	}
	// 10 ops at 100 IOPS is ~100ms of pacing; allow generous slack below
	// but demand the order of magnitude.
	if got := clk.Now() - before; got < 50*time.Millisecond {
		t.Fatalf("10 throttled ops advanced clock only %v", got)
	}

	// Determinism: an identical run produces identical counters and clock.
	clk2 := simclock.New()
	d2 := NewWithSpec(clk2, spec)
	for i := 0; i < 14; i++ {
		if err := d2.WriteAt(buf, int64(i)*4096); err != nil {
			t.Fatalf("replay write %d: %v", i, err)
		}
	}
	if c2 := d2.Stats(); c2 != c {
		t.Fatalf("replay diverged: %+v vs %+v", c2, c)
	}
	if clk2.Now() != clk.Now() {
		t.Fatalf("replay clock diverged: %v vs %v", clk2.Now(), clk.Now())
	}
}

func TestCloudIdleRefillsBurst(t *testing.T) {
	spec := CloudBlock
	spec.BaseIOPS = 100
	spec.BurstOps = 4
	clk := simclock.New()
	d := NewWithSpec(clk, spec)
	buf := make([]byte, 4096)
	for i := 0; i < 8; i++ {
		if err := d.WriteAt(buf, int64(i)*4096); err != nil {
			t.Fatal(err)
		}
	}
	stalls := d.Stats().Stalls
	if stalls == 0 {
		t.Fatal("expected stalls before idle period")
	}
	// An idle stretch refills the bucket; the next burst is stall-free.
	clk.Advance(time.Second)
	for i := 0; i < 4; i++ {
		if err := d.WriteAt(buf, int64(8+i)*4096); err != nil {
			t.Fatal(err)
		}
	}
	if c := d.Stats(); c.Stalls != stalls {
		t.Fatalf("post-idle burst stalled: %+v (had %d stalls)", c, stalls)
	}
}

// The zoo must preserve the flash asymmetry story across tiers: the
// consumer part's sustained random writes are far slower than the
// enterprise part's, while the cloud device has no seq/rand asymmetry.
func TestZooProfileShapes(t *testing.T) {
	if ConsumerTLC.Profile.WriteRand8 <= EnterpriseNVMe.Profile.WriteRand8 {
		t.Fatal("consumer-tlc random writes should be slower than enterprise-nvme")
	}
	if ConsumerTLC.Profile.ReadRand8 <= EnterpriseNVMe.Profile.ReadRand8 {
		t.Fatal("consumer-tlc random reads should be slower than enterprise-nvme")
	}
	if CloudBlock.Profile.ReadSeq8 != CloudBlock.Profile.ReadRand8 ||
		CloudBlock.Profile.WriteSeq8 != CloudBlock.Profile.WriteRand8 {
		t.Fatal("cloud-block should have no seq/rand asymmetry")
	}
	if ZNSAppend.Profile.WriteSeq8 != ZNSAppend.Profile.WriteRand8 {
		t.Fatal("zns media never executes a random write; calibration points must match")
	}
}

// TestStatsCountsEveryDeviceKind: the zone, throttle and fault counters live
// in the one Stats snapshot, Sub windows them like the I/O counters, and a
// block device reports zeros for the zone and throttle ones.
func TestStatsCountsEveryDeviceKind(t *testing.T) {
	buf := make([]byte, 8192)

	zns := NewWithSpec(simclock.New(), ZNSAppend)
	zns.WriteAt(buf, 0)
	before := zns.Stats()
	zns.WriteAt(buf, 8192) // append
	zns.WriteAt(buf, 0)    // redirect
	zns.Discard(0, zns.Spec().ZoneBytes)
	if st := zns.Stats(); st.ZoneAppends != 2 || st.ZoneRedirects != 1 || st.ZoneResets != 1 {
		t.Fatalf("zns totals: %+v", st)
	}
	w := zns.Stats().Sub(before)
	if w.ZoneAppends != 1 || w.ZoneAppendBytes != 8192 || w.ZoneRedirects != 1 ||
		w.ZoneRedirectBytes != 8192 || w.ZoneResets != 1 || w.Writes != 2 {
		t.Fatalf("zns window: %+v", w)
	}

	spec := CloudBlock
	spec.BaseIOPS, spec.BurstOps = 100, 2
	cloud := NewWithSpec(simclock.New(), spec)
	cloud.WriteAt(buf, 0)
	before = cloud.Stats()
	for i := 1; i < 6; i++ {
		cloud.WriteAt(buf, int64(i)*8192)
	}
	w = cloud.Stats().Sub(before)
	if w.ThrottledOps != 5 || w.Stalls != 4 || w.StallTime <= 0 {
		t.Fatalf("cloud window: %+v", w)
	}
	if total := cloud.Stats(); total.ThrottledOps != 6 || total.StallTime != w.StallTime {
		t.Fatalf("cloud totals: %+v (window %+v)", total, w)
	}

	blk := NewWithSpec(simclock.New(), EnterpriseNVMe)
	blk.WriteAt(buf, 0)
	blk.WriteAt(buf, 0)
	blk.ReadAt(buf, 0)
	if st := blk.Stats(); st.ZoneAppends|st.ZoneRedirects|st.ZoneResets|st.ThrottledOps|st.Stalls != 0 || st.StallTime != 0 {
		t.Fatalf("block device counts zone or throttle activity: %+v", st)
	}

	blk.ArmFault(FaultRule{Kind: FaultReadErr, Class: AnyClass, Ops: []uint64{1, 3}})
	before = blk.Stats()
	for i := 0; i < 3; i++ {
		blk.ReadAt(buf, 0)
	}
	if f := blk.Stats().Sub(before).Faults; f.Injected[FaultReadErr] != 2 || f.Injected[FaultWriteErr] != 0 {
		t.Fatalf("fault window: %v", f)
	}
	blk.ResetStats()
	if st := blk.Stats(); st != (Stats{}) {
		t.Fatalf("ResetStats left %+v", st)
	}
}
