package ssd

// The device zoo. The paper evaluates on a single enterprise NVMe latency
// profile (Figure 8); its claims — index-only visibility checks staying
// cheap, append-based storage keeping writes sequential — are exactly the
// kind that shift with device characteristics. Following the NVMeVirt
// methodology (software-defined device personalities over one substrate)
// and the flash KV-store analysis of Misra et al. (PAPERS.md), the
// simulator is parameterized into named device specs:
//
//   - enterprise-nvme: the paper's Intel P3600 profile, conventional block
//     semantics. The baseline every experiment historically used.
//   - consumer-tlc: a SATA-class consumer TLC drive — lower read
//     parallelism, and sustained (post-SLC-cache) random writes an order
//     of magnitude worse than the enterprise part.
//   - zns: an append-only zoned device. Writes land at a per-zone write
//     pointer; an in-place overwrite is REJECTED by the media. The device
//     runs a dm-zoned-style translation shim that absorbs overwrites
//     as zone appends plus a mapping update (charged and counted), so
//     unmodified engines still run — the redirect counter measures exactly
//     how much of the engine's write traffic a real zoned device would
//     bounce.
//   - cloud-block: network-attached cloud block storage — a flat per-op
//     network overhead, no seq/rand asymmetry, and a throttled-IOPS token
//     bucket with burst credits: I/O beyond the sustained rate drains the
//     bucket, and once credits are spent each op stalls until the next
//     token accrues (charged to the virtual clock, so stalls are
//     deterministic).
//
// A DeviceSpec is a pure value (scalars only), so it can ride inside
// db.Config under the Config copy contract and template N shard engines.

import "time"

// Mode selects a device's write-path semantics beyond the latency profile.
type Mode uint8

// Device modes.
const (
	// ModeBlock is a conventional block device: any offset is writable in
	// place. The zero value, and the semantics every profile had before the
	// zoo existed.
	ModeBlock Mode = iota
	// ModeZNS is an append-only zoned device: each ZoneBytes-sized zone has
	// a write pointer, writes at the pointer append, writes below it are
	// in-place overwrites the media rejects — absorbed by the built-in
	// translation shim (counted + charged). Discarding a whole zone resets
	// its pointer.
	ModeZNS
	// ModeCloud is network-attached block storage: PerOpOverhead is added
	// to every I/O and a token bucket throttles sustained IOPS to BaseIOPS
	// with BurstOps credits of headroom.
	ModeCloud
)

func (m Mode) String() string {
	switch m {
	case ModeBlock:
		return "block"
	case ModeZNS:
		return "zns"
	case ModeCloud:
		return "cloud"
	}
	return "?"
}

// DeviceSpec names one zoo device: a latency profile plus mode parameters.
//
// COPY CONTRACT: DeviceSpec is a pure value type (scalars and structs of
// scalars only) so db.Config can embed it — see the Config copy contract.
// It is comparable with ==; the zero value means "default device"
// (enterprise-nvme).
type DeviceSpec struct {
	// Name is the zoo identifier ("enterprise-nvme", "consumer-tlc",
	// "zns", "cloud-block").
	Name string
	// Profile is the latency calibration table.
	Profile Profile
	// Mode selects block / zns / cloud semantics.
	Mode Mode

	// ZoneBytes sizes ZNS zones (default 4 MiB). ModeZNS only.
	ZoneBytes int64

	// BaseIOPS is the sustained token refill rate (default 4000) and
	// BurstOps the bucket capacity in ops (default 8000). ModeCloud only.
	BaseIOPS int64
	BurstOps int64
	// PerOpOverhead is the flat network round-trip added to every I/O
	// (default 250µs). ModeCloud only.
	PerOpOverhead time.Duration
}

// withDefaults fills unset mode parameters.
func (s DeviceSpec) withDefaults() DeviceSpec {
	zero := Profile{}
	if s.Profile == zero {
		s.Profile = IntelP3600
	}
	if s.Name == "" {
		s.Name = "custom"
	}
	if s.Mode == ModeZNS && s.ZoneBytes <= 0 {
		s.ZoneBytes = 4 << 20
	}
	if s.Mode == ModeCloud {
		if s.BaseIOPS <= 0 {
			s.BaseIOPS = 4000
		}
		if s.BurstOps <= 0 {
			s.BurstOps = 8000
		}
		if s.PerOpOverhead <= 0 {
			s.PerOpOverhead = 250 * time.Microsecond
		}
	}
	return s
}

// EnterpriseNVMe is the paper's Intel P3600 as a zoo spec — the default
// device and the baseline of every historical experiment.
var EnterpriseNVMe = DeviceSpec{Name: "enterprise-nvme", Profile: IntelP3600}

// ConsumerTLC models a SATA-class consumer TLC drive in its sustained
// (post-SLC-cache) regime: reads capped by the SATA link and shallower
// device parallelism, small random writes ~6x slower than the enterprise
// part, and large random writes collapsing to tens of IOPS once device-side
// garbage collection kicks in (the Misra et al. failure mode).
var ConsumerTLC = DeviceSpec{
	Name: "consumer-tlc",
	Profile: Profile{
		ReadSeq8:    time.Second / 60000,
		ReadSeq64:   time.Second / 8300,
		ReadRand8:   time.Second / 11000,
		ReadRand64:  time.Second / 5600,
		WriteSeq8:   time.Second / 6000,
		WriteSeq64:  time.Second / 900,
		WriteRand8:  time.Second / 1100,
		WriteRand64: time.Second / 18,
	},
}

// ZNSAppend models an NVMe zoned namespace device: read latencies in the
// P3600's class, zone appends slightly faster than conventional writes
// (the device runs no internal garbage collection), and NO random-write
// path at the media — every write either lands on a zone write pointer or
// is absorbed by the translation shim (see ModeZNS). The random-write
// calibration points equal the sequential ones because the media never
// executes a random write.
var ZNSAppend = DeviceSpec{
	Name: "zns",
	Mode: ModeZNS,
	Profile: Profile{
		ReadSeq8:    time.Second / 122382,
		ReadSeq64:   time.Second / 24180,
		ReadRand8:   time.Second / 112479,
		ReadRand64:  time.Second / 23631,
		WriteSeq8:   time.Second / 14000,
		WriteSeq64:  time.Second / 1700,
		WriteRand8:  time.Second / 14000,
		WriteRand64: time.Second / 1700,
	},
	ZoneBytes: 4 << 20,
}

// CloudBlock models provisioned cloud block storage (EBS-gp-style): a flat
// network round-trip on every I/O, no seq/rand asymmetry (the backend is a
// replicated store, not a single flash device), and a throttled-IOPS token
// bucket — 4000 sustained IOPS with 8000 ops of burst credits.
var CloudBlock = DeviceSpec{
	Name: "cloud-block",
	Mode: ModeCloud,
	Profile: Profile{
		ReadSeq8:    time.Second / 20000,
		ReadSeq64:   time.Second / 4000,
		ReadRand8:   time.Second / 20000,
		ReadRand64:  time.Second / 4000,
		WriteSeq8:   time.Second / 16000,
		WriteSeq64:  time.Second / 3200,
		WriteRand8:  time.Second / 16000,
		WriteRand64: time.Second / 3200,
	},
	BaseIOPS:      4000,
	BurstOps:      8000,
	PerOpOverhead: 250 * time.Microsecond,
}

// Zoo returns the named device specs in canonical order.
func Zoo() []DeviceSpec {
	return []DeviceSpec{EnterpriseNVMe, ConsumerTLC, ZNSAppend, CloudBlock}
}

// ZooNames returns the zoo's device names in canonical order.
func ZooNames() []string {
	specs := Zoo()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// SpecByName resolves a zoo device by name.
func SpecByName(name string) (DeviceSpec, bool) {
	for _, s := range Zoo() {
		if s.Name == name {
			return s, true
		}
	}
	return DeviceSpec{}, false
}

// Spec returns the device's spec (defaults filled).
func (d *Device) Spec() DeviceSpec { return d.spec }

// znsWrite applies zoned-device semantics to a write of n bytes at off,
// returning its latency charge. Called with d.mu held.
//
// A write at (or beyond) the zone's write pointer is an append: it charges
// the sequential-write latency regardless of global LBA adjacency (the
// zone IS the sequential stream) and advances the pointer. A write below
// the pointer is an in-place overwrite: the media rejects it, and the
// translation shim absorbs it as a data append plus one mapping-block
// append — charged as sequential writes of the payload and one store
// block. Writes that cross a zone boundary are accounted to the zone of
// their first byte (zones are orders of magnitude larger than any single
// engine I/O).
func (d *Device) znsWrite(off int64, n int) time.Duration {
	zone := off / d.spec.ZoneBytes
	wp, ok := d.zoneWP[zone]
	if !ok {
		wp = zone * d.spec.ZoneBytes
	}
	if off >= wp {
		if d.zoneWP == nil {
			d.zoneWP = make(map[int64]int64)
		}
		d.zoneWP[zone] = off + int64(n)
		d.stats.ZoneAppends++
		d.stats.ZoneAppendBytes += int64(n)
		return latency(d.spec.Profile.WriteSeq8, d.spec.Profile.WriteSeq64, n)
	}
	d.stats.ZoneRedirects++
	d.stats.ZoneRedirectBytes += int64(n)
	// Data re-append plus one mapping-block write in the shim's metadata
	// zone; the stale copy under the old offset becomes zone garbage a
	// future reset reclaims.
	return latency(d.spec.Profile.WriteSeq8, d.spec.Profile.WriteSeq64, n) +
		latency(d.spec.Profile.WriteSeq8, d.spec.Profile.WriteSeq64, storeBlock)
}

// cloudCharge applies the network overhead and the IOPS token bucket to
// one I/O's latency. Called with d.mu held. Tokens accrue in VIRTUAL time
// at BaseIOPS per second up to BurstOps; an op that finds the bucket empty
// stalls until the next token accrues, and the stall is charged to the
// virtual clock — making throttle behaviour a deterministic function of
// the I/O sequence.
func (d *Device) cloudCharge(lat time.Duration) time.Duration {
	now := d.clock.Now()
	if now > d.tokenAt {
		accrued := float64(now-d.tokenAt) / float64(time.Second) * float64(d.spec.BaseIOPS)
		d.tokens += accrued
		if max := float64(d.spec.BurstOps); d.tokens > max {
			d.tokens = max
		}
		d.tokenAt = now
	}
	lat += d.spec.PerOpOverhead
	d.stats.ThrottledOps++
	if d.tokens >= 1 {
		d.tokens--
		return lat
	}
	wait := time.Duration((1 - d.tokens) / float64(d.spec.BaseIOPS) * float64(time.Second))
	d.tokens = 0
	d.stats.Stalls++
	d.stats.StallTime += wait
	return lat + wait
}

// znsDiscard rewinds the write pointer of every zone fully covered by the
// discard range. Called with d.mu held.
func (d *Device) znsDiscard(off, n int64) {
	zb := d.spec.ZoneBytes
	first := (off + zb - 1) / zb
	last := (off + n) / zb
	for z := first; z < last; z++ {
		if _, ok := d.zoneWP[z]; ok {
			delete(d.zoneWP, z)
			d.stats.ZoneResets++
		}
	}
}
