package db

import (
	"errors"
	"fmt"

	"mvpbt/internal/index/mvpbt"
	"mvpbt/internal/storage"
)

// Space governance. A bounded device (Config.DeviceCapacityBytes) gets two
// watermarks. Crossing the SOFT watermark triggers urgent reclamation — WAL
// checkpoint/truncation first (frees whole extents of dead log), then
// partition garbage collection, merges and heap vacuum — at the next
// commit/abort boundary. Crossing the HARD watermark additionally degrades
// the engine to READ-ONLY: new row writes fail fast with ErrReadOnly while
// reads, scans, commits and aborts keep working, so the engine stays
// queryable instead of grinding into ENOSPC failures mid-transaction. The
// degradation heals itself: once reclamation (or external deletes) brings
// live bytes back under the soft watermark the engine re-opens for writes.
//
// The wiring: sfile.Manager calls Engine.onSpace with the live byte count
// after every extent allocation and free (outside all sfile locks), and a
// write that still manages to hit storage.ErrNoSpace — the budget can be
// exceeded between the notification and the next allocation — flips the
// engine read-only through the same path.

// ErrReadOnly is returned by write operations while the engine is degraded
// to read-only because device space ran out. Reads and scans still work;
// the engine re-opens for writes once space drops below the soft watermark.
var ErrReadOnly = errors.New("db: engine is read-only: device space exhausted")

// SpaceStats reports the governor's view of the device.
type SpaceStats struct {
	Capacity  int64 // configured budget (0 = unbounded)
	Soft      int64 // reclamation watermark
	Hard      int64 // read-only watermark
	Live      int64 // bytes currently allocated
	HighWater int64 // peak allocation frontier
	ReadOnly  bool
	ROEntries int64 // times the engine degraded to read-only
	ROExits   int64 // times it re-opened for writes
	Reclaims  int64 // urgent reclamation passes run
}

// SpaceInfo returns the governor's current statistics.
func (e *Engine) SpaceInfo() SpaceStats {
	return SpaceStats{
		Capacity:  e.FM.CapacityBytes(),
		Soft:      e.cfg.SpaceSoftBytes,
		Hard:      e.cfg.SpaceHardBytes,
		Live:      e.FM.LiveBytes(),
		HighWater: e.FM.HighWaterBytes(),
		ReadOnly:  e.readOnly.Load(),
		ROEntries: e.roEntries.Load(),
		ROExits:   e.roExits.Load(),
		Reclaims:  e.reclaims.Load(),
	}
}

// ReadOnly reports whether the engine is degraded to read-only.
func (e *Engine) ReadOnly() bool { return e.readOnly.Load() }

// ForceReadOnly manually degrades (on=true) or restores (on=false) the
// engine, through the same state machine the space governor drives: writes
// fail fast with ErrReadOnly while reads, scans, commits and aborts keep
// working. A testing seam: the server, shard and db tests use it to put a
// shard into degraded read-only deterministically. On an engine with
// capacity watermarks configured the governor may independently re-evaluate
// the state on the next space event (a forced degradation below the soft
// watermark heals on the next allocation); on an unbounded engine the
// forced state sticks until the next ForceReadOnly call.
func (e *Engine) ForceReadOnly(on bool) {
	if on {
		if e.readOnly.CompareAndSwap(false, true) {
			e.roEntries.Add(1)
		}
		return
	}
	if e.readOnly.CompareAndSwap(true, false) {
		e.roExits.Add(1)
	}
}

// onSpace is the sfile space notifier: classify live bytes against the
// watermarks and react. Called after every extent alloc/free with no sfile
// locks held, and possibly from many goroutines at once.
// Reclamation is edge-triggered: one pass per upward crossing of the soft
// watermark (plus one per read-only entry and one per late ENOSPC), not one
// per allocation above it — a steady writer between the watermarks must not
// pay a reclamation pass on every commit.
func (e *Engine) onSpace(live int64) {
	e.evalSpace(live)
	if e.cfg.SpaceSoftBytes > 0 {
		if live >= e.cfg.SpaceSoftBytes {
			if e.aboveSoft.CompareAndSwap(false, true) {
				e.requestReclaim()
			}
		} else {
			e.aboveSoft.Store(false)
		}
	}
}

// evalSpace toggles the read-only state (entry at hard, exit below soft)
// without requesting reclamation — the hysteresis band between the two
// watermarks keeps the state from flapping on every alloc/free pair.
func (e *Engine) evalSpace(live int64) {
	switch {
	case e.cfg.SpaceHardBytes > 0 && live >= e.cfg.SpaceHardBytes:
		e.enterReadOnly()
	case e.cfg.SpaceSoftBytes > 0 && live < e.cfg.SpaceSoftBytes:
		if e.readOnly.CompareAndSwap(true, false) {
			e.roExits.Add(1)
		}
	}
}

func (e *Engine) enterReadOnly() {
	if e.readOnly.CompareAndSwap(false, true) {
		e.roEntries.Add(1)
		e.requestReclaim()
	}
}

// ReclaimNow synchronously runs one reclamation pass — the same pass the
// space governor schedules at watermark crossings: WAL checkpoint and log
// truncation, MV-PBT garbage collection and partition merges, heap
// vacuum. An administrative seam, the equivalent of a manual
// CHECKPOINT+VACUUM maintenance window in a conventional DBMS; the
// governor's edge-triggered passes remain the automatic path. The
// checkpoint step silently skips (it does not fail) while transactions
// are active.
func (e *Engine) ReclaimNow() error { return e.reclaimSpace() }

// requestReclaim schedules a reclamation pass. The notifier may be firing
// from inside a write path that holds table or tree locks, so the pass is
// deferred to the next commit/abort boundary.
func (e *Engine) requestReclaim() {
	e.reclaimPending.Store(true)
}

// maybeReclaim runs due reclamation at a commit/abort boundary — the point
// where no table locks are held and the calling transaction is no longer
// active (so the WAL checkpoint can proceed when the engine is otherwise
// quiescent). A pass is due when one is pending, or whenever the engine is
// read-only: reclamation while degraded may have been impotent — a
// long-running reader pinning the GC horizon and holding the checkpoint
// busy — and the boundary that ends such a transaction is precisely the
// moment a retry can finally make progress.
func (e *Engine) maybeReclaim() {
	pending := e.reclaimPending.CompareAndSwap(true, false)
	if !pending && !e.readOnly.Load() {
		return
	}
	e.reclaimSpace() //nolint:errcheck // best-effort; watermarks re-evaluated inside
}

// reclaimSpace is one urgent reclamation pass, cheapest lever first:
//
//  1. WAL checkpoint — truncating the log frees whole extents of dead
//     history and is usually the largest single win. Skipped (not failed)
//     when transactions are active, when nothing was logged since the last
//     one, or when the WAL is off; it shares the auto-checkpoint's flight.
//  2. MV-PBT garbage collection and partition merges — dropping
//     out-of-snapshot versions and merge duplicates.
//  3. Heap vacuum — reclaiming dead row versions.
//
// The final watermark re-evaluation re-opens the engine if enough space
// came back; it deliberately does NOT re-request reclamation, so a pass
// that frees nothing terminates instead of looping — the next allocation
// above the soft watermark schedules a fresh pass.
func (e *Engine) reclaimSpace() error {
	e.reclaims.Add(1)
	if e.log != nil {
		e.checkpointFlight(1) // a generation nothing was appended to has nothing to free
	}
	var errs error
	for _, st := range e.storeList() {
		errs = errors.Join(errs, st.reclaim())
	}
	e.evalSpace(e.FM.LiveBytes())
	return errs
}

// reclaimTree is one MV-PBT's share of a reclamation pass: a due partition
// merge runs — due by the predicate eviction asks too (mvpbt's mergeStart),
// so a hot index whose old versions or deletes a reader pinned through its
// evictions merges here. P_N's garbage is eviction's to drop.
func reclaimTree(t *mvpbt.Tree, name string) error {
	if t.NeedsMerge() {
		if err := t.MergePartitions(); err != nil {
			return fmt.Errorf("db: reclaim: merging %s: %w", name, err)
		}
	}
	return nil
}

// writeGate is the fast-path admission check at the head of every row
// write. It also converts a late storage.ErrNoSpace — one that slipped past
// the watermarks — into read-only degradation via noteWriteErr.
func (e *Engine) writeGate() error {
	if e.readOnly.Load() {
		return ErrReadOnly
	}
	return nil
}

// noteWriteErr inspects a write-path error: device exhaustion degrades the
// engine to read-only (and schedules reclamation) so subsequent writes fail
// fast instead of repeatedly dying inside the allocator. The error is
// returned unchanged.
func (e *Engine) noteWriteErr(err error) error {
	if err != nil && errors.Is(err, storage.ErrNoSpace) {
		e.enterReadOnly()
		e.requestReclaim()
	}
	return err
}
