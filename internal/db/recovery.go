package db

import (
	"fmt"
	"iter"
	"maps"
	"slices"

	"mvpbt/internal/txn"
	"mvpbt/internal/wal"
)

// WAL integration: with Config.EnableWAL the engine appends a logical
// redo record for every row operation and a commit/abort marker per
// transaction, flushing the log at commit (the transaction's durability
// point). Recovery (Engine.Recover) rebuilds the committed state in a
// freshly built engine: tables replay their transactions through the normal
// table interfaces, durable KV stores are bulk-loaded.

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

// Recover rebuilds the engine's state from a write-ahead log image. Call it
// on a FRESHLY CONSTRUCTED engine whose tables and durable KV stores have
// been re-created (NewTable and NewMVPBTKV, same names and definitions) but
// hold no data: the caller owns the schema, the log holds the data, and a
// record finds its store by name among those the engine registered. Only
// transactions with a commit record are applied, in log order; everything
// else is discarded. A KV store is loaded (loader), a table replayed, with
// no flush on the way: one checkpoint at the end makes the new log
// self-contained, its failure Recover's error (the caller closes the
// engine). Legs whose 2PC decision never reached the log follow it.
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
	// Pass 2, in log order: fold every store's checkpoint rows and committed
	// writes into the last write of each key, replay a table's as they come,
	// and keep the undecided legs for after the checkpoint. Fresh
	// transaction ids replace the logged ones; commit order follows the log.
	// A checkpoint snapshot at the head of the log counts as one committed
	// transaction, and its CkptEnd record's row count is verified, so a torn
	// snapshot is rejected rather than silently half-applied.
	open := map[uint64]*txn.Tx{}
	folds := map[string]map[string]logged{} // store → key → last committed write
	var doubt []logged
	var ckptTx *txn.Tx
	var ckptRows uint64
	r = wal.NewReaderFromBytes(logImage)
	for pos := 0; ; pos++ {
		rec, ok := r.Next()
		if !ok {
			break
		}
		switch rec.Op {
		case wal.OpBegin:
			if committed[rec.TxID] && open[rec.TxID] == nil {
				open[rec.TxID] = e.Begin()
			}
		case wal.OpCommit, wal.OpDecideCommit:
			if tx := open[rec.TxID]; tx != nil {
				e.Mgr.Commit(tx)
				delete(open, rec.TxID)
				applied++
			}
		case wal.OpPrepare:
			if _, isPrepared := prepared[rec.TxID]; isPrepared && open[rec.TxID] == nil {
				doubt = append(doubt, logged{rec: rec, pos: pos})
			}
		case wal.OpAbort, wal.OpDecideAbort:
			// Aborted/decided-abort transactions were never opened.
		case wal.OpForget:
			// Coordinator-side bookkeeping; nothing to replay.
		case wal.OpInsert, wal.OpUpdate, wal.OpDelete, wal.OpCkptRow:
			tx := open[rec.TxID]
			_, isPrepared := prepared[rec.TxID]
			if rec.Op == wal.OpCkptRow {
				if ckptTx == nil {
					return applied, fmt.Errorf("db: checkpoint row outside a snapshot: %w", wal.ErrWALCorrupt)
				}
				tx = ckptTx
				ckptRows++
			} else if tx == nil && !isPrepared {
				continue // uncommitted: skip
			}
			e.storesMu.Lock()
			st := e.stores[rec.Table]
			e.storesMu.Unlock()
			if st == nil {
				return applied, fmt.Errorf("db: log references unknown table %q", rec.Table)
			}
			if tx == nil {
				doubt = append(doubt, logged{rec, pos, st})
				continue
			}
			if folds[rec.Table] == nil {
				folds[rec.Table] = map[string]logged{}
			}
			folds[rec.Table][string(rec.Key)] = logged{rec: rec, pos: pos}
			if _, ok := st.(loader); !ok {
				if err := st.replay(tx, rec); err != nil {
					return applied, fmt.Errorf("db: replaying %v: %w", rec, err)
				}
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
			e.Mgr.Commit(ckptTx)
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
	// One synthetic transaction writes every loaded store.
	tx := e.Begin()
	for _, st := range e.storeList() {
		if ld, ok := st.(loader); ok {
			if err := ld.load(tx, liveRows(folds[st.storeName()])); err != nil {
				e.Abort(tx)
				return applied, fmt.Errorf("db: loading %q: %w", st.storeName(), err)
			}
		}
	}
	e.Mgr.Commit(tx)
	if err := e.Checkpoint(); err != nil {
		return applied, fmt.Errorf("db: recovery's checkpoint: %w", err)
	}
	// The undecided legs replay into the new log and are prepared again, for
	// resolution against the coordinator log. A leg's write that a committed
	// write of its key followed is dropped: it can never win, and written now,
	// after that write, it would overtake it once the leg commits. A leg left
	// with no write is not prepared.
	legs := map[uint64]*txn.Tx{}
	for _, d := range doubt {
		id := d.rec.TxID
		switch {
		case d.rec.Op == wal.OpPrepare && legs[id] != nil:
			if err := e.PrepareDurable(legs[id], prepared[id]); err != nil {
				return applied, fmt.Errorf("db: re-preparing in-doubt tx %d: %w", id, err)
			}
			delete(legs, id)
		case d.rec.Op == wal.OpPrepare, folds[d.rec.Table][string(d.rec.Key)].pos > d.pos:
			// No write survived, or a committed write of the key followed.
		default:
			if legs[id] == nil {
				legs[id] = e.Begin()
			}
			if err := d.st.replay(legs[id], d.rec); err != nil {
				return applied, fmt.Errorf("db: replaying %v: %w", d.rec, err)
			}
		}
	}
	for _, tx := range legs {
		e.Abort(tx) // writes but no prepare record after them
	}
	return applied, corruptErr
}

// logged is a log record, its number in the log and (an in-doubt write) its store.
type logged struct {
	rec wal.Record
	pos int
	st  store
}

// liveRows yields a fold's last writes that are not deletes, in key order.
func liveRows(fold map[string]logged) iter.Seq2[[]byte, []byte] {
	return func(yield func(key, row []byte) bool) {
		for _, k := range slices.Sorted(maps.Keys(fold)) {
			if w := fold[k].rec; w.Op != wal.OpDelete && !yield(w.Key, w.Row) {
				return
			}
		}
	}
}

func (m *MVPBTKV) storeName() string { return m.name }

// load implements loader.
func (m *MVPBTKV) load(tx *txn.Tx, rows iter.Seq2[[]byte, []byte]) error {
	return m.tree.Load(tx, rows, m.nextRef)
}

// replay implements store: an upsert or a tombstone of an in-doubt leg.
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
