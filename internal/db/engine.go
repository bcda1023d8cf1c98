// Package db assembles the storage engine: the simulated device, buffer
// pool, transaction manager and partition buffer, plus the Table
// abstraction that binds a base-table heap (HOT or SIAS) to any mix of
// indexes (B-Tree, PBT, MV-PBT) with physical or logical references. It
// implements the two visibility-check paths the paper contrasts:
//
//   - version-oblivious indexes return candidates → one base-table
//     visibility check (random reads) per candidate (§2, Figure 2);
//   - MV-PBT returns visible entries directly (index-only visibility
//     check, §4.4) — the base table is touched only to fetch payloads.
package db

import (
	"fmt"
	"iter"
	"sort"
	"sync"
	"sync/atomic"

	"mvpbt/internal/buffer"
	"mvpbt/internal/index/part"
	"mvpbt/internal/sfile"
	"mvpbt/internal/simclock"
	"mvpbt/internal/ssd"
	"mvpbt/internal/txn"
	"mvpbt/internal/wal"
)

// Config sizes an Engine.
//
// COPY CONTRACT: Config is a pure value type — every field is a scalar or
// a struct of scalars, so an assignment is a deep copy and one Config can
// safely template many engines (the shard router instantiates one Engine
// per shard from a single Config value). Keep it that way: a slice,
// map, pointer or func field added here would silently alias state across
// engines sharing the template. If such a field ever becomes necessary it
// must be deep-copied in withDefaults, and TestConfigIsPureValue
// (config_test.go) must learn about it — the test fails the build on any
// reference-typed field it does not recognise.
type Config struct {
	// BufferPages is the shared DB buffer size in 8 KiB pages
	// (default 4096 = 32 MiB).
	BufferPages int
	// PartitionBufferBytes is the shared MV-PBT buffer limit
	// (default 4 MiB).
	PartitionBufferBytes int
	// Device selects a zoo device (ssd.Zoo) by full spec: latency profile
	// plus mode semantics — ZNS append-only zones, cloud IOPS throttling.
	// The zero value, and a zero Profile inside a non-zero Device, default
	// to ssd.IntelP3600. DeviceSpec is itself a pure value (scalars and a
	// name string), keeping the copy contract intact.
	Device ssd.DeviceSpec
	// EnableWAL turns on logical redo logging with per-commit flushes (see
	// internal/wal). Off by default: the paper's experiments run without
	// durability, like the paper's prototype.
	EnableWAL bool
	// GroupCommit's MaxDelay lets concurrent durable commits share log
	// flushes (see GroupCommitConfig and DESIGN.md §11). Only meaningful
	// with EnableWAL; 0 by default, so every commit flushes at once.
	GroupCommit GroupCommitConfig
	// WALCheckpointBytes triggers an automatic checkpoint (snapshot + log
	// truncation, see Engine.Checkpoint) once the current log generation
	// grows past this many bytes (0 = no automatic checkpoints).
	WALCheckpointBytes int64
	// DeviceCapacityBytes bounds the device space the engine may allocate
	// (0 = unbounded). Allocations beyond the budget fail with
	// storage.ErrNoSpace, and the watermarks below govern degradation.
	DeviceCapacityBytes int64
	// SpaceSoftBytes is the reclamation watermark: live bytes at or above
	// it trigger urgent reclamation (WAL truncation, GC, merges, vacuum).
	// Default 85% of DeviceCapacityBytes.
	SpaceSoftBytes int64
	// SpaceHardBytes is the degradation watermark: live bytes at or above
	// it flip the engine to read-only (writes fail with ErrReadOnly; reads
	// keep working) until reclamation brings usage back under
	// SpaceSoftBytes. Default 95% of DeviceCapacityBytes.
	SpaceHardBytes int64
}

func (c Config) withDefaults() Config {
	if c.BufferPages <= 0 {
		c.BufferPages = 4096
	}
	if c.PartitionBufferBytes <= 0 {
		c.PartitionBufferBytes = 4 << 20
	}
	if c.DeviceCapacityBytes > 0 {
		if c.SpaceSoftBytes <= 0 {
			c.SpaceSoftBytes = c.DeviceCapacityBytes * 85 / 100
		}
		if c.SpaceHardBytes <= 0 {
			c.SpaceHardBytes = c.DeviceCapacityBytes * 95 / 100
		}
	}
	return c
}

// Engine owns the storage substrate shared by all tables.
type Engine struct {
	Clock *simclock.Clock
	Dev   *ssd.Device
	FM    *sfile.Manager
	Pool  *buffer.Pool
	Mgr   *txn.Manager
	PBuf  *part.PartitionBuffer

	// log is the write-ahead log, nil unless Config.EnableWAL. Checkpoint
	// rotates it under its exclusive lock; the quiescence precondition (no
	// active transactions) guarantees no thread holding a table mutex can be
	// waiting to append when that lock is taken.
	log        *wal.Log
	ckptErrs   atomic.Int64
	autoCkptMu sync.Mutex // the engine's own checkpoints, one at a time: see checkpointFlight

	// walCommits/walROCommits count durable commits that appended a commit
	// record vs read-only commits elided entirely; durableCommits and
	// commitFlushes are CommitDurable's share (GroupCommitStats).
	walCommits     atomic.Int64
	walROCommits   atomic.Int64
	durableCommits atomic.Int64
	commitFlushes  atomic.Int64

	// In-doubt registry for cross-shard two-phase commit (twopc.go):
	// transactions that PREPARED durably and now await the coordinator's
	// decision. Their handles stay open (InProgress), keeping their
	// versions invisible through the ordinary visibility check.
	inDoubtMu      sync.Mutex
	inDoubt        map[txn.TxID]*preparedTx
	prepares       atomic.Int64
	resolveCommits atomic.Int64
	resolveAborts  atomic.Int64

	cfg Config

	storesMu sync.Mutex
	stores   map[string]store // every table, and the KV stores of an engine with a log

	// Space governor state (see governor.go).
	readOnly       atomic.Bool
	aboveSoft      atomic.Bool // edge detector for the soft watermark
	roEntries      atomic.Int64
	roExits        atomic.Int64
	reclaims       atomic.Int64
	reclaimPending atomic.Bool // pass due at next commit/abort

	closeMu  sync.Mutex
	closed   bool
	closeErr error
}

// NewEngine builds an engine from cfg.
func NewEngine(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	clk := simclock.New()
	dev := ssd.NewWithSpec(clk, cfg.Device)
	e := &Engine{
		Clock:   clk,
		Dev:     dev,
		FM:      sfile.NewManager(dev),
		Pool:    buffer.New(cfg.BufferPages),
		Mgr:     txn.NewManager(),
		PBuf:    part.NewPartitionBuffer(cfg.PartitionBufferBytes),
		cfg:     cfg,
		stores:  map[string]store{},
		inDoubt: map[txn.TxID]*preparedTx{},
	}
	if cfg.EnableWAL {
		e.log = wal.NewLog(e.FM, "wal", ssd.CauseWAL, ssd.CauseCheckpoint)
	}
	if cfg.DeviceCapacityBytes > 0 {
		e.FM.SetCapacity(cfg.DeviceCapacityBytes)
		e.FM.SetSpaceNotifier(e.onSpace)
	}
	return e
}

// store is what a table or a durable KV store owes the engine that logs,
// checkpoints, recovers and reclaims it. Names are one namespace: a log
// record's Table field must resolve to exactly one store.
type store interface {
	storeName() string
	// replay applies one logged row operation or checkpoint row (OpInsert,
	// OpUpdate, OpDelete, OpCkptRow) inside tx through the store's ordinary
	// write path, which logs it again: what recovery replays after its
	// closing checkpoint (an in-doubt leg) must be in the new log.
	replay(tx *txn.Tx, rec wal.Record) error
	// snapshot streams the rows visible to tx in primary-key order, while
	// emit returns true; key and row are good until it returns.
	snapshot(tx *txn.Tx, emit func(key, row []byte) bool) error
	// reclaim is the store's share of a reclamation pass (reclaimSpace).
	reclaim() error
}

// loader is a store that recovery builds in one pass instead of replaying:
// load writes rows (live, keys strictly ascending) as its whole state under
// tx. A Table is not one: each of its secondary indexes would need a sort.
type loader interface {
	load(tx *txn.Tx, rows iter.Seq2[[]byte, []byte]) error
}

// register enters s under its name, which no other store of the engine may
// have taken.
func (e *Engine) register(s store) error {
	e.storesMu.Lock()
	defer e.storesMu.Unlock()
	if _, dup := e.stores[s.storeName()]; dup {
		return fmt.Errorf("db: duplicate store name %q (tables and durable KV stores share one namespace)", s.storeName())
	}
	e.stores[s.storeName()] = s
	return nil
}

// storeList lists the engine's stores in name order (checkpoint snapshots
// must be a deterministic function of the state).
func (e *Engine) storeList() []store {
	e.storesMu.Lock()
	out := make([]store, 0, len(e.stores))
	for _, s := range e.stores {
		out = append(out, s)
	}
	e.storesMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].storeName() < out[j].storeName() })
	return out
}

// Close shuts the engine down cleanly: the WAL tail is flushed to the device
// and the log fenced — a later commit, prepare or commit decision fails
// with ErrClosed unless the final flush already covered its record.
// Idempotent: every call returns the first call's error.
func (e *Engine) Close() error {
	e.closeMu.Lock()
	defer e.closeMu.Unlock()
	if e.closed {
		return e.closeErr
	}
	e.closed = true
	if e.log != nil {
		e.closeErr = e.log.Flush()
		e.log.Close()
	}
	return e.closeErr
}

// Begin starts a transaction.
func (e *Engine) Begin() *txn.Tx {
	// The transaction's OpBegin record is emitted LAZILY, together with its
	// first row operation (Engine.logOp): a read-only transaction therefore
	// never touches the log — no begin record, no commit record, no flush.
	return e.Mgr.Begin()
}

// Commit commits tx. With logging enabled the commit record and all of the
// transaction's row operations are flushed to the device first — the
// durability point. A persistent log-flush failure panics: the transaction
// can be neither acknowledged nor cleanly rolled back at this point, so
// callers that must survive device faults use CommitDurable instead.
func (e *Engine) Commit(tx *txn.Tx) {
	if err := e.CommitDurable(tx); err != nil {
		panic("db: commit log flush failed: " + err.Error())
	}
}

// CommitDurable commits txs, returning the WAL flush error instead of
// panicking. On error NONE of them is committed in memory and the
// durability of every one with a commit record is IN DOUBT: depending on
// where the flush tore, its commit record may or may not have reached the
// device, so after a restart recovery may legitimately resurface the
// transaction as committed. The caller decides between retrying the flush
// (the log writer resumes at the failed page) and crashing.
//
// A read-only transaction (no logged row operations) commits without
// touching the log at all. Otherwise every commit record is appended and the
// log flushed once through the last (one deterministic flush for a batch,
// which the fault campaign's torn batch tears); with GroupCommit.MaxDelay
// the commit first waits that long for another committer's flush to cover
// the records (DESIGN.md §11). A commit arriving after Close or Crash fails
// with ErrClosed unless a flush before the fence covered its records.
func (e *Engine) CommitDurable(txs ...*txn.Tx) error {
	if e.log != nil {
		logged, end := int64(0), int64(0)
		for _, tx := range txs {
			if tx.WALLogged() {
				end = e.log.Append(&wal.Record{Op: wal.OpCommit, TxID: uint64(tx.ID)})
				logged++
			}
		}
		if logged > 0 {
			e.awaitFlush(end)
			wrote, err := e.log.FlushTo(end)
			if err != nil {
				return err
			}
			if wrote {
				e.commitFlushes.Add(1)
			}
			e.walCommits.Add(logged)
			e.durableCommits.Add(logged)
		}
		if ro := int64(len(txs)) - logged; ro > 0 {
			e.walROCommits.Add(ro)
		}
	}
	for _, tx := range txs {
		e.Mgr.Commit(tx)
	}
	e.maybeAutoCheckpoint()
	e.maybeReclaim()
	return nil
}

// Abort aborts tx. A transaction that never logged needs no abort record.
func (e *Engine) Abort(tx *txn.Tx) {
	if e.log != nil && tx.WALLogged() {
		e.log.Append(&wal.Record{Op: wal.OpAbort, TxID: uint64(tx.ID)})
	}
	e.Mgr.Abort(tx)
	e.maybeReclaim()
}
