package db

import (
	"errors"
	"fmt"

	"mvpbt/internal/wal"
)

// WAL checkpointing (log truncation). The logical redo log grows without
// bound — every committed row operation stays in it forever, and recovery
// replays all of it. A checkpoint bounds both: it writes a snapshot of the
// committed visible state as a NEW log generation (CkptBegin / one CkptRow
// per row / CkptEnd) and rotates the log onto it, which frees the old
// generation's device pages. Recovery then reads snapshot + suffix
// instead of history-since-birth, and the device space held by dead log
// prefix is reclaimed — the reclamation lever the space governor pulls
// first when the device fills up. How a generation is published atomically,
// and what each crash instant leaves behind, is wal.Log's business
// (DESIGN.md §10).

// ErrCheckpointBusy is returned by Checkpoint when transactions are active.
// A checkpoint snapshots the committed state with no writer in flight —
// callers retry at a quiescent point (the engine's reclamation path does).
var ErrCheckpointBusy = errors.New("db: checkpoint requires a quiescent engine (active transactions)")

// CheckpointStats reports the effect of the last completed checkpoint.
type CheckpointStats struct {
	Count          int64 // completed checkpoints
	WALBytesBefore int64 // device bytes held by the log before the last checkpoint
	WALBytesAfter  int64 // device bytes held by the log after it
	Errors         int64 // checkpoints that failed for a reason other than ErrCheckpointBusy or ErrClosed
}

// CheckpointInfo returns checkpoint statistics.
func (e *Engine) CheckpointInfo() CheckpointStats {
	if e.log == nil {
		return CheckpointStats{}
	}
	st := e.log.Stats()
	return CheckpointStats{Count: int64(st.Seq), WALBytesBefore: st.BytesBefore, WALBytesAfter: st.BytesAfter,
		Errors: e.ckptErrs.Load()}
}

// WALDeviceBytes returns the device bytes currently held by the log
// (current generation plus the superblock file).
func (e *Engine) WALDeviceBytes() int64 {
	if e.log == nil {
		return 0
	}
	return e.log.Stats().DeviceBytes
}

// Checkpoint writes a snapshot of the committed visible state as a new log
// generation and rotates the log onto it, freeing the old generation's
// device pages. It requires a quiescent engine: any active transaction makes
// it return ErrCheckpointBusy (the snapshot must not interleave with
// writers, and the precondition also rules out lock-order inversions —
// every in-flight operation holding a table lock belongs to an active
// transaction, so none can be waiting on the log lock the rotation holds).
//
// On any failure the old log remains authoritative — the checkpoint simply
// did not happen.
func (e *Engine) Checkpoint() error {
	if e.log == nil {
		return fmt.Errorf("db: Checkpoint on an engine without EnableWAL")
	}
	return e.log.Rotate(0, e.snapshotInto)
}

// snapshotInto fills log generation seq with every table's and durable KV
// store's committed visible rows. It runs inside the rotation, with
// appenders locked out.
func (e *Engine) snapshotInto(w *wal.Writer, seq uint64) error {
	if e.Mgr.ActiveCount() != 0 {
		return ErrCheckpointBusy
	}
	// The snapshot transaction is synthetic: opened directly on the manager
	// so no begin/abort records pollute either log generation. Stores stream
	// in sorted name order and each follows its primary-key order, so the
	// snapshot bytes are a deterministic function of the committed state.
	tx := e.Mgr.Begin()
	defer e.Mgr.Abort(tx)
	w.Append(&wal.Record{Op: wal.OpCkptBegin, TxID: seq})
	var rows uint64
	for _, st := range e.storeList() {
		name := st.storeName()
		err := st.snapshot(tx, func(key, row []byte) bool {
			w.Append(&wal.Record{Op: wal.OpCkptRow, TxID: seq, Table: name, Key: key, Row: row})
			rows++
			return true
		})
		if err != nil {
			return fmt.Errorf("db: checkpoint: snapshotting %q: %w", name, err)
		}
	}
	w.Append(&wal.Record{Op: wal.OpCkptEnd, TxID: rows})
	return nil
}

// maybeAutoCheckpoint runs a checkpoint when the current log generation has
// grown past the configured threshold. Called after commit, outside all
// locks; a busy engine (other active transactions) just means the next
// commit tries again.
func (e *Engine) maybeAutoCheckpoint() {
	if e.cfg.WALCheckpointBytes <= 0 || e.log == nil || e.log.Grown() < e.cfg.WALCheckpointBytes {
		return
	}
	e.checkpointFlight(e.cfg.WALCheckpointBytes)
}

// checkpointFlight is every checkpoint the engine decides on by itself: a
// committer's past the growth threshold, a reclamation pass's. Single-flight:
// callers that decide together queue on autoCkptMu and ask again, once they
// hold it, whether the log generation has grown by min bytes, so one
// threshold crossing — raced by a reclamation pass or not — rotates the log
// once. Checkpointing is an optimization and the old log stays authoritative
// on failure: an error is recorded for diagnostics, a busy or closed engine
// not even that.
func (e *Engine) checkpointFlight(min int64) {
	e.autoCkptMu.Lock()
	defer e.autoCkptMu.Unlock()
	if e.log.Grown() < min {
		return
	}
	if err := e.Checkpoint(); err != nil && !errors.Is(err, ErrCheckpointBusy) && !errors.Is(err, ErrClosed) {
		e.ckptErrs.Add(1)
	}
}
