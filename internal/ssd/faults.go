package ssd

import (
	"fmt"

	"mvpbt/internal/storage"
)

// Fault injection. The device can be armed with deterministic fault rules:
// each rule scopes a fault kind to one file class (or every class) and fires
// on specific scope-matching operation counts (an op-count schedule) or on
// every match (sticky). Because firing depends only on the sequence of
// matching operations — never on wall-clock time or randomness — two runs
// that issue the same I/O sequence against the same rules observe exactly
// the same faults. That determinism contract is what lets the differential
// harness (internal/check) replay and shrink faulty histories.

// FaultKind enumerates the injectable fault classes.
type FaultKind uint8

const (
	// FaultReadErr fails a read with ErrIOFault; the media is unchanged.
	FaultReadErr FaultKind = iota
	// FaultWriteErr fails a write with ErrIOFault; nothing is persisted.
	FaultWriteErr
	// FaultTornWrite persists only the first TornSectors sectors of a write
	// and then fails it — the tail of the target range keeps whatever the
	// media held before (real sector-atomic devices tear exactly this way;
	// they do not zero the unwritten sectors).
	FaultTornWrite
	// FaultBitFlip flips one bit in the stored media under a read's target
	// range (persistent bit rot). The read itself succeeds and returns the
	// corrupted data; only a checksum can tell.
	FaultBitFlip
	// FaultNoSpace fails an extent ALLOCATION (not a data-path I/O) with an
	// error wrapping storage.ErrNoSpace — deterministic ENOSPC, as if the
	// device's usable capacity shrank under the space manager. Scoping and
	// op-count schedules work exactly like the I/O fault kinds; the
	// matching operation sequence is the sequence of extent allocations.
	FaultNoSpace

	// NumFaultKinds is the number of fault kinds (for counter arrays).
	NumFaultKinds = 5
)

func (k FaultKind) String() string {
	switch k {
	case FaultReadErr:
		return "read-err"
	case FaultWriteErr:
		return "write-err"
	case FaultTornWrite:
		return "torn-write"
	case FaultBitFlip:
		return "bit-flip"
	case FaultNoSpace:
		return "no-space"
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// AnyClass in FaultRule.Class matches I/O to every file class.
const AnyClass = -1

// FaultRule describes one armed fault over the whole device (or one file
// class of it). An empty Ops schedule with Sticky false never fires (arm it with
// Sticky or at least one op count).
type FaultRule struct {
	Kind FaultKind

	// Class restricts the rule to I/O on extents of one sfile class
	// (sfile registers an offset→class classifier with the device), or
	// AnyClass. I/O the classifier cannot attribute matches only AnyClass
	// rules.
	Class int

	// Ops is the op-count schedule: the rule fires on its k-th
	// scope-matching operation for every k listed (1-based). Once the
	// largest count has passed, the rule disarms itself.
	Ops []uint64

	// Sticky makes the rule fire on every scope-matching operation until
	// explicitly disarmed.
	Sticky bool

	// ByteOffset (mod the op length) selects the corrupted byte and BitMask
	// the flipped bits for FaultBitFlip. A zero BitMask flips bit 0.
	ByteOffset int
	BitMask    byte

	// TornSectors is how many leading 512-byte sectors a FaultTornWrite
	// persists before failing.
	TornSectors int
}

func (r *FaultRule) appliesTo(op Op) bool {
	switch op {
	case OpRead:
		return r.Kind == FaultReadErr || r.Kind == FaultBitFlip
	case OpWrite:
		return r.Kind == FaultWriteErr || r.Kind == FaultTornWrite
	default: // OpAlloc
		return r.Kind == FaultNoSpace
	}
}

// FaultCounters counts injected faults per kind since the last reset
// (Stats.Faults).
type FaultCounters struct {
	Injected [NumFaultKinds]int64
}

func (c FaultCounters) String() string {
	return fmt.Sprintf("read-err=%d write-err=%d torn-write=%d bit-flip=%d no-space=%d",
		c.Injected[FaultReadErr], c.Injected[FaultWriteErr],
		c.Injected[FaultTornWrite], c.Injected[FaultBitFlip],
		c.Injected[FaultNoSpace])
}

// armedFault is a FaultRule plus its private match counter.
type armedFault struct {
	id      int
	rule    FaultRule
	matches uint64
}

// SetClassifier installs the offset→file-class function used by rule
// scoping. It is called with the device mutex held, so it must not acquire
// locks that can be held while calling into the device (sfile keeps its
// extent-class map under a dedicated mutex for exactly this reason).
func (d *Device) SetClassifier(fn func(off int64) int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.classifier = fn
}

// ArmFault arms a fault rule and returns its id for DisarmFault.
func (d *Device) ArmFault(r FaultRule) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextFaultID++
	d.faults = append(d.faults, &armedFault{id: d.nextFaultID, rule: r})
	return d.nextFaultID
}

// DisarmFault removes the rule with the given id (a no-op if it already
// disarmed itself).
func (d *Device) DisarmFault(id int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, f := range d.faults {
		if f.id == id {
			d.faults = append(d.faults[:i], d.faults[i+1:]...)
			return
		}
	}
}

// DisarmAllFaults removes every armed rule. Counters are kept.
func (d *Device) DisarmAllFaults() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.faults = nil
}

// matchFault is called under d.mu for every I/O. Every rule that scopes the
// operation advances its match counter; the first rule whose schedule is due
// fires (at most one fault per operation, in arm order — deterministic).
// Non-sticky rules disarm themselves once their schedule is exhausted.
func (d *Device) matchFault(op Op, off int64, n int) *armedFault {
	if len(d.faults) == 0 {
		return nil
	}
	cls := AnyClass
	if d.classifier != nil {
		cls = d.classifier(off)
	}
	var fired *armedFault
	for _, f := range d.faults {
		r := &f.rule
		if !r.appliesTo(op) {
			continue
		}
		if r.Class != AnyClass && r.Class != cls {
			continue
		}
		f.matches++
		if fired != nil {
			continue
		}
		if r.Sticky {
			fired = f
			continue
		}
		for _, k := range r.Ops {
			if k == f.matches {
				fired = f
				break
			}
		}
	}
	if fired != nil {
		d.stats.Faults.Injected[fired.rule.Kind]++
		if !fired.rule.Sticky {
			var maxOp uint64
			for _, k := range fired.rule.Ops {
				if k > maxOp {
					maxOp = k
				}
			}
			if fired.matches >= maxOp {
				for i, f := range d.faults {
					if f == fired {
						d.faults = append(d.faults[:i], d.faults[i+1:]...)
						break
					}
				}
			}
		}
	}
	return fired
}

// flipBit corrupts one bit of the stored media inside [off, off+n).
func (d *Device) flipBit(f *armedFault, off int64, n int) {
	if n == 0 {
		return
	}
	pos := off + int64(f.rule.ByteOffset%n)
	mask := f.rule.BitMask
	if mask == 0 {
		mask = 1
	}
	var b [1]byte
	d.copyOut(b[:], pos)
	b[0] ^= mask
	d.copyIn(b[:], pos)
}

func faultErr(kind FaultKind, off int64, n int) error {
	base := storage.ErrIOFault
	if kind == FaultNoSpace {
		base = storage.ErrNoSpace
	}
	return fmt.Errorf("ssd: injected %v at off=%d len=%d: %w", kind, off, n, base)
}

// CheckAlloc consults the armed fault rules for an extent allocation at
// byte offset off of n bytes. The space manager calls it before committing
// an allocation; an armed FaultNoSpace rule whose schedule is due fails the
// allocation with an error wrapping storage.ErrNoSpace. Allocations charge
// no latency (they move no data) and are not traced.
func (d *Device) CheckAlloc(off int64, n int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if f := d.matchFault(OpAlloc, off, n); f != nil {
		return faultErr(f.rule.Kind, off, n)
	}
	return nil
}
