// Package ssd simulates an enterprise flash device (modelled on the Intel
// DC P3600 of the paper's Figure 8). The simulator serves reads and writes
// from RAM, charges each I/O a latency derived from the paper's measured
// IOPS table to a virtual clock (internal/simclock), classifies each I/O as
// sequential or random by LBA adjacency, and optionally records an LBA
// trace (Figure 12c).
//
// The essential property preserved from real flash is the read/write
// asymmetry: small random reads are fast and parallel, small random writes
// are an order of magnitude slower, and large sequential writes are the
// only efficient write pattern. Every experiment in the paper is driven by
// this asymmetry.
package ssd

import (
	"sync"
	"time"

	"mvpbt/internal/simclock"
)

// SectorSize is the LBA unit used in traces, matching common disk tooling
// (blktrace reports 512-byte sectors).
const SectorSize = 512

// storeBlock is the internal storage granularity of the simulator.
const storeBlock = 8192

// Profile holds the calibration points of the latency model: the duration
// of one 8 KiB and one 64 KiB operation for each of the four I/O classes.
// Latencies for other sizes are interpolated piecewise-linearly (see
// latency).
type Profile struct {
	ReadSeq8, ReadSeq64     time.Duration
	ReadRand8, ReadRand64   time.Duration
	WriteSeq8, WriteSeq64   time.Duration
	WriteRand8, WriteRand64 time.Duration
}

// IntelP3600 is the latency profile derived from the paper's Figure 8
// (latency = 1 / IOPS for each class and block size).
//
//	                 8 KiB IOPS   64 KiB IOPS
//	sequential read     122382        24180
//	random read         112479        23631
//	sequential write     11104         1343
//	random write          7185           56
var IntelP3600 = Profile{
	ReadSeq8:    time.Second / 122382,
	ReadSeq64:   time.Second / 24180,
	ReadRand8:   time.Second / 112479,
	ReadRand64:  time.Second / 23631,
	WriteSeq8:   time.Second / 11104,
	WriteSeq64:  time.Second / 1343,
	WriteRand8:  time.Second / 7185,
	WriteRand64: time.Second / 56,
}

// latency interpolates the duration of an n-byte operation from the two
// calibration points (8 KiB, lat8) and (64 KiB, lat64): proportional below
// 8 KiB, linear between the points, slope-extrapolated above 64 KiB.
func latency(lat8, lat64 time.Duration, n int) time.Duration {
	const p8, p64 = 8 << 10, 64 << 10
	switch {
	case n <= 0:
		return 0
	case n <= p8:
		return time.Duration(int64(lat8) * int64(n) / p8)
	case n <= p64:
		frac := float64(n-p8) / float64(p64-p8)
		return lat8 + time.Duration(float64(lat64-lat8)*frac)
	default:
		slope := float64(lat64-lat8) / float64(p64-p8) // ns per byte
		return lat64 + time.Duration(slope*float64(n-p64))
	}
}

// Op identifies the direction of a traced I/O.
type Op uint8

// I/O directions. OpAlloc is not a data-path I/O: it labels extent
// allocations for fault-rule scoping (FaultNoSpace) and never appears in
// traces.
const (
	OpRead Op = iota
	OpWrite
	OpAlloc
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "R"
	case OpWrite:
		return "W"
	default:
		return "A"
	}
}

// TraceEntry records a single device I/O for write-pattern analysis
// (Figure 12c).
type TraceEntry struct {
	Time time.Duration // virtual time at completion
	Op   Op
	LBA  int64 // 512-byte sector address
	Len  int   // bytes
	Seq  bool  // classified as sequential
}

// Cause says why a write reached the device: the index of its row in
// Stats.Written.
type Cause uint8

// The write causes, in Stats.Written's order. The zero Cause is CauseOther,
// so a write no caller named is never booked to a cause it does not have.
const (
	CauseOther      Cause = iota // the rest: WriteAt, index and meta pages written back
	CauseWAL                     // a commit's log flush
	CauseCheckpoint              // the log generation a checkpoint fills, and its superblock
	CauseEvict                   // a partition built from a write buffer (MV-PBT's P_N, PBT, LSM memtable)
	CauseMerge                   // a partition merged from others
	CauseLoad                    // a partition bulk-loaded by recovery
	CauseHeap                    // a table page written back from the buffer pool
	CauseCoordLog                // the 2PC coordinator's log
	NumCauses
)

// CauseStats is the writes of one cause.
type CauseStats struct {
	Ops, Bytes int64
	Time       time.Duration
}

// Stats aggregates device activity since the last reset: the I/O every
// device does, the zone and throttle activity of ZNS and cloud devices
// (zeros on the others), and the injected faults.
type Stats struct {
	Reads, Writes           int64
	BytesRead, BytesWritten int64
	SeqReads, RandReads     int64
	SeqWrites, RandWrites   int64
	ReadTime, WriteTime     time.Duration

	// Written splits Writes, BytesWritten and WriteTime by Cause.
	Written [NumCauses]CauseStats

	// ZNS (zoo.go): ZoneAppends are writes that landed on a zone write
	// pointer; ZoneRedirects are in-place overwrites the translation shim
	// absorbed (each also charged one mapping-block append); ZoneResets
	// counts zones whose write pointer a whole-zone discard rewound.
	ZoneAppends, ZoneAppendBytes     int64
	ZoneRedirects, ZoneRedirectBytes int64
	ZoneResets                       int64

	// Cloud (zoo.go): ops the throttle served, ops that found the token
	// bucket empty, and the virtual time those stalls charged.
	ThrottledOps, Stalls int64
	StallTime            time.Duration

	Faults FaultCounters
}

// Sub returns s - o, for windowed measurements.
func (s Stats) Sub(o Stats) Stats {
	d := Stats{
		Reads: s.Reads - o.Reads, Writes: s.Writes - o.Writes,
		BytesRead: s.BytesRead - o.BytesRead, BytesWritten: s.BytesWritten - o.BytesWritten,
		SeqReads: s.SeqReads - o.SeqReads, RandReads: s.RandReads - o.RandReads,
		SeqWrites: s.SeqWrites - o.SeqWrites, RandWrites: s.RandWrites - o.RandWrites,
		ReadTime: s.ReadTime - o.ReadTime, WriteTime: s.WriteTime - o.WriteTime,
		ZoneAppends: s.ZoneAppends - o.ZoneAppends, ZoneAppendBytes: s.ZoneAppendBytes - o.ZoneAppendBytes,
		ZoneRedirects: s.ZoneRedirects - o.ZoneRedirects, ZoneRedirectBytes: s.ZoneRedirectBytes - o.ZoneRedirectBytes,
		ZoneResets:   s.ZoneResets - o.ZoneResets,
		ThrottledOps: s.ThrottledOps - o.ThrottledOps, Stalls: s.Stalls - o.Stalls, StallTime: s.StallTime - o.StallTime,
	}
	for k := range d.Faults.Injected {
		d.Faults.Injected[k] = s.Faults.Injected[k] - o.Faults.Injected[k]
	}
	for c, w := range s.Written {
		d.Written[c] = CauseStats{w.Ops - o.Written[c].Ops, w.Bytes - o.Written[c].Bytes, w.Time - o.Written[c].Time}
	}
	return d
}

// IOTime returns the total virtual time spent in I/O.
func (s Stats) IOTime() time.Duration { return s.ReadTime + s.WriteTime }

// Device is a simulated flash device. All methods are safe for concurrent
// use; the latency of each I/O is charged to the shared virtual clock.
type Device struct {
	mu        sync.Mutex
	clock     *simclock.Clock
	prof      Profile
	spec      DeviceSpec
	blocks    map[int64][]byte
	spare     [][]byte // blocks Discard released, reused by copyIn; at most max(len(blocks), 32)
	lastRdEnd int64
	lastWrEnd int64
	stats     Stats
	tracing   bool
	trace     []TraceEntry

	// Zoned-device state (zoo.go): per-zone write pointers.
	zoneWP map[int64]int64

	// Throttled-device state (zoo.go): IOPS token bucket.
	tokens  float64
	tokenAt time.Duration

	// Fault injection (faults.go). classifier maps a byte offset to the
	// sfile class of the extent it falls in, for rule scoping.
	faults      []*armedFault
	nextFaultID int
	classifier  func(off int64) int
}

// New returns an empty device with the given latency profile and
// conventional block semantics, charging I/O time to clock.
func New(clock *simclock.Clock, prof Profile) *Device {
	return NewWithSpec(clock, DeviceSpec{Profile: prof})
}

// NewWithSpec returns an empty device built from a zoo spec (zoo.go),
// charging I/O time to clock. The zero spec is the default device
// (enterprise-nvme profile, block mode).
func NewWithSpec(clock *simclock.Clock, spec DeviceSpec) *Device {
	spec = spec.withDefaults()
	d := &Device{clock: clock, prof: spec.Profile, spec: spec,
		blocks: make(map[int64][]byte), lastRdEnd: -1, lastWrEnd: -1}
	if spec.Mode == ModeZNS {
		d.zoneWP = make(map[int64]int64)
	}
	if spec.Mode == ModeCloud {
		d.tokens = float64(spec.BurstOps) // the bucket starts full
	}
	return d
}

// ReadAt reads len(p) bytes at byte offset off. Unwritten regions read as
// zeros (like a trimmed SSD). An armed read-error fault fails the read with
// an error wrapping storage.ErrIOFault (the latency is still charged — a
// failed I/O is not a free I/O); an armed bit-flip fault corrupts the
// stored media under the range and the read succeeds.
func (d *Device) ReadAt(p []byte, off int64) error {
	return d.ReadvAt([][]byte{p}, off)
}

// ReadvAt is ReadAt scattered: ONE device read of the contiguous bytes at off,
// delivered into the buffers of ps in order (preadv) — what lets a run of pages
// land in separate buffer-pool frames without a transfer buffer between.
func (d *Device) ReadvAt(ps [][]byte, off int64) error {
	n := 0
	for _, b := range ps {
		n += len(b)
	}
	if n == 0 {
		return nil
	}
	d.mu.Lock()
	seq := off == d.lastRdEnd
	d.lastRdEnd = off + int64(n)
	var lat time.Duration
	if seq {
		lat = latency(d.prof.ReadSeq8, d.prof.ReadSeq64, n)
		d.stats.SeqReads++
	} else {
		lat = latency(d.prof.ReadRand8, d.prof.ReadRand64, n)
		d.stats.RandReads++
	}
	if d.spec.Mode == ModeCloud {
		lat = d.cloudCharge(lat)
	}
	d.stats.Reads++
	d.stats.BytesRead += int64(n)
	d.stats.ReadTime += lat
	var ioErr error
	if f := d.matchFault(OpRead, off, n); f != nil {
		if f.rule.Kind == FaultBitFlip {
			d.flipBit(f, off, n)
		} else {
			ioErr = faultErr(f.rule.Kind, off, n)
		}
	}
	for at := off; ioErr == nil && len(ps) > 0; ps = ps[1:] {
		d.copyOut(ps[0], at)
		at += int64(len(ps[0]))
	}
	if d.tracing {
		d.trace = append(d.trace, TraceEntry{Time: d.clock.Now() + lat, Op: OpRead, LBA: off / SectorSize, Len: n, Seq: seq})
	}
	d.mu.Unlock()
	d.clock.Advance(lat)
	return ioErr
}

// WriteAt writes len(p) bytes at byte offset off, for CauseOther.
func (d *Device) WriteAt(p []byte, off int64) error { return d.WriteFor(CauseOther, p, off) }

// WriteFor writes len(p) bytes at byte offset off and books them to cause c.
// An armed write-error fault persists nothing and fails with an error
// wrapping storage.ErrIOFault; a torn-write fault persists only the leading
// sectors (the rest of the range keeps its previous media contents) and then
// fails.
func (d *Device) WriteFor(c Cause, p []byte, off int64) error {
	if len(p) == 0 {
		return nil
	}
	d.mu.Lock()
	seq := off == d.lastWrEnd
	d.lastWrEnd = off + int64(len(p))
	var lat time.Duration
	if seq {
		lat = latency(d.prof.WriteSeq8, d.prof.WriteSeq64, len(p))
		d.stats.SeqWrites++
	} else {
		lat = latency(d.prof.WriteRand8, d.prof.WriteRand64, len(p))
		d.stats.RandWrites++
	}
	switch d.spec.Mode {
	case ModeZNS:
		lat = d.znsWrite(off, len(p))
	case ModeCloud:
		lat = d.cloudCharge(lat)
	}
	d.stats.Writes++
	d.stats.BytesWritten += int64(len(p))
	d.stats.WriteTime += lat
	w := &d.stats.Written[c]
	w.Ops, w.Bytes, w.Time = w.Ops+1, w.Bytes+int64(len(p)), w.Time+lat
	var ioErr error
	if f := d.matchFault(OpWrite, off, len(p)); f != nil {
		if f.rule.Kind == FaultTornWrite {
			n := f.rule.TornSectors * SectorSize
			if n > len(p) {
				n = len(p)
			}
			if n > 0 {
				d.copyIn(p[:n], off)
			}
		}
		ioErr = faultErr(f.rule.Kind, off, len(p))
	}
	if ioErr == nil {
		d.copyIn(p, off)
	}
	if d.tracing {
		d.trace = append(d.trace, TraceEntry{Time: d.clock.Now() + lat, Op: OpWrite, LBA: off / SectorSize, Len: len(p), Seq: seq})
	}
	d.mu.Unlock()
	d.clock.Advance(lat)
	return ioErr
}

// Discard releases the storage backing [off, off+n) (like TRIM). Only whole
// internal blocks are released; subsequent reads of the region return
// zeros for released blocks. Discard charges no latency.
func (d *Device) Discard(off, n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	first := (off + storeBlock - 1) / storeBlock
	last := (off + n) / storeBlock
	for b := first; b < last; b++ {
		if blk, ok := d.blocks[b]; ok {
			delete(d.blocks, b)
			d.spare = append(d.spare, blk)
		}
	}
	// Never more spare blocks than stored ones or an extent's worth (32,
	// sfile.ExtentPages), whichever is more: an append-and-trim cycle, or a
	// build-and-free one on a near-empty device, recycles everything, and a
	// discard of most of the device does not pin it.
	if n := max(len(d.blocks), 32); len(d.spare) > n {
		clear(d.spare[n:])
		d.spare = d.spare[:n]
	}
	if d.spec.Mode == ModeZNS {
		d.znsDiscard(off, n)
	}
}

func (d *Device) copyOut(p []byte, off int64) {
	for len(p) > 0 {
		b := off / storeBlock
		bo := int(off % storeBlock)
		n := storeBlock - bo
		if n > len(p) {
			n = len(p)
		}
		if blk, ok := d.blocks[b]; ok {
			copy(p[:n], blk[bo:bo+n])
		} else {
			for i := 0; i < n; i++ {
				p[i] = 0
			}
		}
		p = p[n:]
		off += int64(n)
	}
}

func (d *Device) copyIn(p []byte, off int64) {
	for len(p) > 0 {
		b := off / storeBlock
		bo := int(off % storeBlock)
		n := storeBlock - bo
		if n > len(p) {
			n = len(p)
		}
		blk, ok := d.blocks[b]
		if !ok {
			blk = d.newBlock(n == storeBlock)
			d.blocks[b] = blk
		}
		copy(blk[bo:bo+n], p[:n])
		p = p[n:]
		off += int64(n)
	}
}

// newBlock returns a storage block for copyIn, recycling one that Discard
// released: an append-and-trim workload (log rotation, partition merges)
// otherwise turns the whole device over into garbage for the Go collector.
// A recycled block still holds its old contents, so it is zeroed unless the
// caller is about to overwrite all of it.
func (d *Device) newBlock(overwritten bool) []byte {
	n := len(d.spare)
	if n == 0 {
		return make([]byte, storeBlock)
	}
	blk := d.spare[n-1]
	d.spare = d.spare[:n-1]
	if !overwritten {
		clear(blk)
	}
	return blk
}

// Stats returns a snapshot of every device counter.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes every counter (the stored data and armed faults are
// kept).
func (d *Device) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
}

// SetTracing enables or disables LBA tracing. Enabling clears any previous
// trace.
func (d *Device) SetTracing(on bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tracing = on
	if on {
		d.trace = nil
	}
}

// Trace returns a copy of the recorded trace.
func (d *Device) Trace() []TraceEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]TraceEntry, len(d.trace))
	copy(out, d.trace)
	return out
}
