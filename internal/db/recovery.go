package db

import (
	"fmt"

	"mvpbt/internal/txn"
	"mvpbt/internal/wal"
)

// WAL integration: with Config.EnableWAL the engine appends a logical
// redo record for every row operation and a commit/abort marker per
// transaction, flushing the log at commit (the transaction's durability
// point). Recovery (Engine.Recover) replays committed transactions in log
// order through the normal table interfaces into a freshly built engine,
// reconstructing heaps, indexes and indirection state.

// logOp appends a row-operation record for the table or durable KV store
// called name when logging is enabled. The transaction's OpBegin record is
// emitted lazily here, immediately before its first row record: replay
// requires begin-before-first-op, and read-only transactions never reach
// this point, leaving the log untouched.
func (e *Engine) logOp(tx *txn.Tx, op wal.Op, name string, key, row []byte) {
	if e.log == nil {
		return
	}
	if tx.FirstWALOp() {
		e.log.Append(&wal.Record{Op: wal.OpBegin, TxID: uint64(tx.ID)})
	}
	e.log.Append(&wal.Record{Op: op, TxID: uint64(tx.ID), Table: name, Key: key, Row: row})
}

// pkKey extracts the row's primary-key (the first index's key).
func (t *Table) pkKey(row []byte) []byte {
	if len(t.indexes) == 0 {
		return nil
	}
	return t.indexes[0].Def.Extract(row)
}

// Recover replays a write-ahead log image into the engine. Call it on a
// FRESHLY CONSTRUCTED engine whose tables and durable KV stores have been
// re-created (NewTable and NewMVPBTKV, same names and definitions) but hold
// no data: the caller owns the schema, the log holds the data, and a record
// finds its store by name among those the engine registered. Only
// transactions with a commit record are applied, in log order; everything
// else is discarded. Replay commits through the engine's own log, and a flush
// that fails returns its error: the caller closes the engine.
func (e *Engine) Recover(logImage []byte) (applied int, err error) {
	if e.log == nil {
		return 0, fmt.Errorf("db: Recover on an engine without EnableWAL")
	}
	// Pass 1: find committed transactions, and prepared transactions whose
	// 2PC decision never reached this log — those must survive recovery IN
	// DOUBT (durable but invisible), not be dropped as uncommitted work.
	// Records appear in log order, so a later decide record settles an
	// earlier prepare.
	committed := map[uint64]bool{}
	prepared := map[uint64]uint64{} // txid → commit-group id, undecided only
	r := wal.NewReaderFromBytes(logImage)
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		switch rec.Op {
		case wal.OpCommit:
			committed[rec.TxID] = true
		case wal.OpDecideCommit:
			committed[rec.TxID] = true
			delete(prepared, rec.TxID)
		case wal.OpPrepare:
			if !committed[rec.TxID] {
				prepared[rec.TxID] = wal.GroupID(rec.Key)
			}
		case wal.OpAbort, wal.OpDecideAbort:
			delete(prepared, rec.TxID)
		}
	}
	// If the readable prefix ended at an unreadable record, decide whether
	// that is a harmless torn tail (an unacknowledged flush died with the
	// crash — nothing committed is lost) or mid-log corruption: salvage-scan
	// past the damage for commit records of transactions the replay below
	// cannot reach. Dropped committed work makes the log corrupt; replay
	// still applies the intact prefix, but the error is surfaced so the
	// caller never mistakes the partial state for complete.
	var corruptErr error
	if r.Stopped() {
		dropped := map[uint64]bool{}
		for _, txid := range wal.Salvage(logImage, r.Offset()) {
			if !committed[txid] {
				dropped[txid] = true
			}
		}
		if len(dropped) > 0 {
			corruptErr = fmt.Errorf("db: WAL unreadable at offset %d, %d committed transaction(s) dropped: %w",
				r.Offset(), len(dropped), wal.ErrWALCorrupt)
		}
	}
	// Pass 2: replay committed row operations in log order. Original
	// transaction ids are remapped to fresh ones; commit order follows the
	// log, so the final visible state matches. A checkpoint snapshot at the
	// head of the log replays as one synthetic committed transaction; its
	// CkptEnd record carries the row count, which replay verifies so a torn
	// snapshot is rejected rather than silently half-applied.
	open := map[uint64]*txn.Tx{}
	var ckptTx *txn.Tx
	var ckptRows uint64
	r = wal.NewReaderFromBytes(logImage)
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		switch rec.Op {
		case wal.OpBegin:
			// Prepared-undecided: replay its operations too; the prepare
			// record below re-parks it in doubt.
			if _, isPrepared := prepared[rec.TxID]; isPrepared || committed[rec.TxID] {
				open[rec.TxID] = e.Begin()
			}
		case wal.OpCommit, wal.OpDecideCommit:
			if tx := open[rec.TxID]; tx != nil {
				if err := e.CommitDurable(tx); err != nil {
					return applied, fmt.Errorf("db: committing replayed tx %d: %w", rec.TxID, err)
				}
				delete(open, rec.TxID)
				applied++
			}
		case wal.OpPrepare:
			// Re-prepare an undecided transaction through the normal prepare
			// path (re-logging, like all of replay): the recovered engine's
			// fresh log carries its own prepare record and the in-doubt
			// registry holds the open handle for later resolution against
			// the coordinator log.
			gid, isPrepared := prepared[rec.TxID]
			tx := open[rec.TxID]
			if tx == nil || !isPrepared {
				continue // decided later in the log, or uncommitted garbage
			}
			if err := e.PrepareDurable(tx, gid); err != nil {
				return applied, fmt.Errorf("db: re-preparing in-doubt tx %d: %w", rec.TxID, err)
			}
			delete(open, rec.TxID)
		case wal.OpAbort, wal.OpDecideAbort:
			// Aborted/decided-abort transactions were never opened.
		case wal.OpForget:
			// Coordinator-side bookkeeping; nothing to replay.
		case wal.OpInsert, wal.OpUpdate, wal.OpDelete, wal.OpCkptRow:
			tx := open[rec.TxID]
			if rec.Op == wal.OpCkptRow {
				if ckptTx == nil {
					return applied, fmt.Errorf("db: checkpoint row outside a snapshot: %w", wal.ErrWALCorrupt)
				}
				tx = ckptTx
				ckptRows++
			} else if tx == nil {
				continue // uncommitted: skip
			}
			e.storesMu.Lock()
			st := e.stores[rec.Table]
			e.storesMu.Unlock()
			if st == nil {
				return applied, fmt.Errorf("db: log references unknown table %q", rec.Table)
			}
			if err := st.replay(tx, rec); err != nil {
				return applied, fmt.Errorf("db: replaying %v: %w", rec, err)
			}
		case wal.OpCkptBegin:
			if ckptTx != nil {
				return applied, fmt.Errorf("db: nested checkpoint begin (seq %d): %w", rec.TxID, wal.ErrWALCorrupt)
			}
			ckptTx, ckptRows = e.Begin(), 0
		case wal.OpCkptEnd:
			if ckptTx == nil {
				return applied, fmt.Errorf("db: checkpoint end without begin: %w", wal.ErrWALCorrupt)
			}
			if rec.TxID != ckptRows {
				return applied, fmt.Errorf("db: checkpoint row count mismatch: snapshot has %d, end record says %d: %w",
					ckptRows, rec.TxID, wal.ErrWALCorrupt)
			}
			if err := e.CommitDurable(ckptTx); err != nil {
				return applied, fmt.Errorf("db: committing the checkpoint snapshot: %w", err)
			}
			ckptTx = nil
			applied++
		}
	}
	if ckptTx != nil {
		// The snapshot never closed: the generation is torn at its head and
		// nothing in it is trustworthy.
		e.Abort(ckptTx)
		return applied, fmt.Errorf("db: checkpoint snapshot torn (no end record after %d rows): %w",
			ckptRows, wal.ErrWALCorrupt)
	}
	// Any transaction left open here logged a begin but no commit was
	// found (should not happen given pass 1); abort defensively.
	for _, tx := range open {
		e.Abort(tx)
	}
	return applied, corruptErr
}

func (m *MVPBTKV) storeName() string { return m.name }

// replay implements store: an upsert or a tombstone.
func (m *MVPBTKV) replay(tx *txn.Tx, rec wal.Record) error {
	if rec.Op == wal.OpDelete {
		return m.DeleteTx(tx, rec.Key)
	}
	return m.PutTx(tx, rec.Key, rec.Row)
}

func (t *Table) storeName() string { return t.name }

// replay implements store: updates and deletes find their target by the
// logged primary key.
func (t *Table) replay(tx *txn.Tx, rec wal.Record) error {
	if rec.Op == wal.OpInsert || rec.Op == wal.OpCkptRow {
		_, _, err := t.Insert(tx, rec.Row)
		return err
	}
	cur, ok, err := t.LookupOne(tx, t.indexes[0], rec.Key, true)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%v target %x missing", rec.Op, rec.Key)
	}
	if rec.Op == wal.OpDelete {
		return t.Delete(tx, cur)
	}
	_, err = t.Update(tx, cur, rec.Row)
	return err
}

// LogImage returns the bytes of the engine's write-ahead log as persisted
// on the device (what survives a crash; see wal.Log.Image), nil without
// EnableWAL.
func (e *Engine) LogImage() []byte {
	if e.log == nil {
		return nil
	}
	return e.log.Image()
}
