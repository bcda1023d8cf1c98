package db

import (
	"fmt"
	"time"

	"mvpbt/internal/txn"
	"mvpbt/internal/wal"
)

// Two-phase commit, participant side (DESIGN.md §12). A cross-shard
// coordinator drives each written leg through PREPARE (this file) instead
// of a unilateral commit: PrepareDurable flushes an OpPrepare record — the
// leg's vote — and parks the transaction handle in the engine's in-doubt
// registry, still InProgress, so its versions stay durable but invisible.
// ResolveGroup later finishes it per the coordinator's decision: a commit
// flushes an OpDecideCommit record first (the leg's durability point,
// exactly like an ordinary commit record), an abort appends OpDecideAbort
// without a flush — presumed abort means a lost abort record costs nothing,
// recovery aborts undecided transactions whose group the coordinator does
// not vouch for.
//
// An in-doubt transaction pins the GC horizon and keeps ActiveCount
// nonzero, so Checkpoint correctly refuses to run (ErrCheckpointBusy)
// while any leg awaits its decision — a snapshot cannot classify a version
// that is neither committed nor aborted.

// preparedTx is one in-doubt registry entry.
type preparedTx struct {
	tx  *txn.Tx
	gid uint64    // coordinator commit-group id
	at  time.Time // wall-clock prepare time (diagnostics only)
}

// InDoubtTxn describes one in-doubt transaction (introspection/resolution).
type InDoubtTxn struct {
	TxID txn.TxID
	GID  uint64 // coordinator commit-group id from the prepare record
}

// TwoPCStats is an engine's commit-protocol health snapshot.
type TwoPCStats struct {
	Prepares        int64 // prepare records durably flushed
	ResolvedCommits int64 // in-doubt transactions resolved to commit
	ResolvedAborts  int64 // in-doubt transactions resolved to abort
	InDoubt         int   // currently prepared, awaiting a decision
	OldestAge       time.Duration
}

// PrepareDurable votes YES on tx for commit-group gid: the transaction's
// row operations and an OpPrepare record are flushed to the device, and the
// handle is parked in the in-doubt registry instead of finishing. On error
// the transaction is NOT prepared (the caller aborts it; durability of the
// prepare is in doubt exactly like CommitDurable's contract, and recovery
// treats a flushed prepare without a decision as in-doubt, never as
// committed). With a log the transaction must have logged at least one row
// operation; an engine without a log has nothing to make durable and only
// parks the handle, exactly as CommitDurable skips its commit record there.
func (e *Engine) PrepareDurable(tx *txn.Tx, gid uint64) error {
	if e.log != nil {
		if !tx.WALLogged() {
			return fmt.Errorf("db: PrepareDurable on a transaction with no logged writes")
		}
		end := e.log.Append(&wal.Record{Op: wal.OpPrepare, TxID: uint64(tx.ID), Key: wal.GroupKey(gid)})
		if _, err := e.log.FlushTo(end); err != nil {
			return err
		}
	}
	e.inDoubtMu.Lock()
	e.inDoubt[tx.ID] = &preparedTx{tx: tx, gid: gid, at: time.Now()}
	e.inDoubtMu.Unlock()
	e.prepares.Add(1)
	return nil
}

// ResolveGroup finishes every in-doubt transaction prepared under gid per
// the coordinator's decision, returning how many it resolved (0 when none
// are in doubt for gid — already resolved, or never prepared here). A
// commit decision is durable: the decide record is flushed before the
// transaction commits in memory, and a flush failure leaves the
// transaction in doubt (retriable — the log writer resumes at the failed
// page, and a restart re-resolves from the recovered prepare record).
func (e *Engine) ResolveGroup(gid uint64, commit bool) (int, error) {
	e.inDoubtMu.Lock()
	var txns []*preparedTx
	for _, p := range e.inDoubt {
		if p.gid == gid {
			txns = append(txns, p)
		}
	}
	e.inDoubtMu.Unlock()
	n := 0
	for _, p := range txns {
		if err := e.resolvePrepared(p, commit); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

func (e *Engine) resolvePrepared(p *preparedTx, commit bool) error {
	// The id is captured first: finishing the handle returns it to the pool,
	// and a concurrent Begin that reuses it rewrites p.tx.ID.
	id := p.tx.ID
	op := wal.OpDecideAbort
	if commit {
		op = wal.OpDecideCommit
	}
	if e.log != nil {
		end := e.log.Append(&wal.Record{Op: op, TxID: uint64(id), Key: wal.GroupKey(p.gid)})
		if commit {
			if _, err := e.log.FlushTo(end); err != nil {
				return err
			}
			e.walCommits.Add(1)
		}
	}
	if commit {
		e.Mgr.Commit(p.tx)
		e.resolveCommits.Add(1)
	} else {
		e.Mgr.Abort(p.tx)
		e.resolveAborts.Add(1)
	}
	e.inDoubtMu.Lock()
	delete(e.inDoubt, id)
	e.inDoubtMu.Unlock()
	e.maybeAutoCheckpoint()
	e.maybeReclaim()
	return nil
}

// InDoubtList snapshots the in-doubt registry — what a recovering shard
// hands to the coordinator-log consultation.
func (e *Engine) InDoubtList() []InDoubtTxn {
	e.inDoubtMu.Lock()
	defer e.inDoubtMu.Unlock()
	out := make([]InDoubtTxn, 0, len(e.inDoubt))
	for id, p := range e.inDoubt {
		out = append(out, InDoubtTxn{TxID: id, GID: p.gid})
	}
	return out
}

// TwoPCInfo returns the engine's commit-protocol counters.
func (e *Engine) TwoPCInfo() TwoPCStats {
	st := TwoPCStats{
		Prepares:        e.prepares.Load(),
		ResolvedCommits: e.resolveCommits.Load(),
		ResolvedAborts:  e.resolveAborts.Load(),
	}
	e.inDoubtMu.Lock()
	st.InDoubt = len(e.inDoubt)
	var oldest time.Time
	for _, p := range e.inDoubt {
		if oldest.IsZero() || p.at.Before(oldest) {
			oldest = p.at
		}
	}
	e.inDoubtMu.Unlock()
	if !oldest.IsZero() {
		st.OldestAge = time.Since(oldest)
	}
	return st
}
