package db

import (
	"fmt"
	"math"
	"sync/atomic"

	"mvpbt/internal/index"
	"mvpbt/internal/index/btree"
	"mvpbt/internal/index/lsm"
	"mvpbt/internal/index/mvpbt"
	"mvpbt/internal/sfile"
	"mvpbt/internal/storage"
	"mvpbt/internal/txn"
	"mvpbt/internal/wal"
)

// KV is the key-value engine contract used by the YCSB comparison of
// Figure 15: the same workload drives a mutable B-Tree, an LSM-Tree and an
// MV-PBT-based engine.
type KV interface {
	Put(key, val []byte) error
	Get(key []byte) ([]byte, bool, error)
	Delete(key []byte) error
	// Scan streams up to limit live pairs with key >= lo in key order. key
	// and val are valid only until fn returns (index.Entry's lifetime rule):
	// a callback that keeps either copies it.
	Scan(lo []byte, limit int, fn func(key, val []byte) bool) error
}

// ---- B-Tree KV: values clustered in the tree, in-place updates
// (delete + insert in the same leaf), the WiredTiger-BTree stand-in.

// BTreeKV is a clustered B-Tree key-value store.
type BTreeKV struct {
	e *Engine
	t *btree.Tree
}

// NewBTreeKV creates a B-Tree KV engine on the engine's storage.
func NewBTreeKV(e *Engine, name string) (*BTreeKV, error) {
	t, err := btree.New(e.Pool, e.FM.Create(name, sfile.ClassIndex))
	if err != nil {
		return nil, err
	}
	return &BTreeKV{e: e, t: t}, nil
}

// Put implements KV: an existing value is replaced in place.
func (b *BTreeKV) Put(key, val []byte) error {
	if err := b.e.writeGate(); err != nil {
		return err
	}
	var old []byte
	hi := append(append([]byte(nil), key...), 0)
	if err := b.t.ScanRaw(key, hi, func(k, body []byte) bool {
		old = body
		return false
	}); err != nil {
		return err
	}
	if old != nil {
		if _, err := b.t.Delete(key, old); err != nil {
			return err
		}
	}
	return b.e.noteWriteErr(b.t.InsertEntry(key, val))
}

// Get implements KV.
func (b *BTreeKV) Get(key []byte) ([]byte, bool, error) {
	var out []byte
	hi := append(append([]byte(nil), key...), 0)
	err := b.t.ScanRaw(key, hi, func(k, body []byte) bool {
		out = body
		return false
	})
	return out, out != nil, err
}

// Delete implements KV.
func (b *BTreeKV) Delete(key []byte) error {
	if err := b.e.writeGate(); err != nil {
		return err
	}
	v, ok, err := b.Get(key)
	if err != nil || !ok {
		return err
	}
	_, err = b.t.Delete(key, v)
	return err
}

// Scan implements KV.
func (b *BTreeKV) Scan(lo []byte, limit int, fn func(key, val []byte) bool) error {
	n := 0
	return b.t.ScanRaw(lo, nil, func(k, body []byte) bool {
		if n >= limit {
			return false
		}
		n++
		return fn(k, body)
	})
}

// ---- LSM KV: the lsm.Tree is already a KV store.

// LSMKV adapts lsm.Tree to the KV contract.
type LSMKV struct {
	e *Engine
	t *lsm.Tree
}

// NewLSMKV creates an LSM KV engine on the engine's storage; Engine.Close
// flushes its memtable.
func NewLSMKV(e *Engine, name string, opts lsm.Options) *LSMKV {
	t := lsm.New(e.Pool, e.FM.Create(name, sfile.ClassIndex), opts)
	e.AddCloser(t.Close)
	return &LSMKV{e: e, t: t}
}

// Tree exposes the underlying LSM tree (statistics).
func (l *LSMKV) Tree() *lsm.Tree { return l.t }

// Put implements KV.
func (l *LSMKV) Put(key, val []byte) error {
	if err := l.e.writeGate(); err != nil {
		return err
	}
	return l.e.noteWriteErr(l.t.Put(key, val))
}

// Get implements KV.
func (l *LSMKV) Get(key []byte) ([]byte, bool, error) { return l.t.Get(key) }

// Delete implements KV.
func (l *LSMKV) Delete(key []byte) error {
	if err := l.e.writeGate(); err != nil {
		return err
	}
	return l.e.noteWriteErr(l.t.Delete(key))
}

// Scan implements KV.
func (l *LSMKV) Scan(lo []byte, limit int, fn func(key, val []byte) bool) error {
	n := 0
	return l.t.ScanLimit(lo, nil, limit, func(k, v []byte) bool {
		if n >= limit {
			return false
		}
		n++
		return fn(k, v)
	})
}

// ---- MV-PBT KV: the clustered multi-version store integration the paper
// built into WiredTiger (§5 "Comparison to LSM-Trees"): MV-PBT index
// records carry the values inline, version identity comes from synthetic
// recordIDs, and there is no separate base table — exactly an LSM-shaped
// KV engine, but with the version-aware record types and index-only
// visibility check of §4.

// MVPBTKV is the MV-PBT-based KV engine. Safe for concurrent use.
type MVPBTKV struct {
	e    *Engine
	tree *mvpbt.Tree
	name string
	rid  atomic.Uint64
}

// MVPBTKVOptions tunes the engine.
type MVPBTKVOptions struct {
	BloomBits int
	// MaxPartitions: above this many partitions, merge the newer ones or
	// all of them (0 = never; mvpbt.Options.MaxPartitions).
	MaxPartitions int
}

// NewMVPBTKV creates a clustered MV-PBT KV engine on the engine's storage.
// On an engine with Config.EnableWAL the store is durable: every Put/Delete
// is logged, so KV commits go through the engine's durable commit pipeline
// — per-commit flushes or group commit — exactly like table row operations,
// Recover replays the store, and checkpoints stream its visible pairs into
// the snapshot generation alongside table rows. name must then be
// unique among the engine's KV stores and tables (it keys WAL records and
// checkpoint snapshots).
func NewMVPBTKV(e *Engine, name string, opts MVPBTKVOptions) (*MVPBTKV, error) {
	t := mvpbt.New(e.Pool, e.FM.Create(name, sfile.ClassIndex), e.PBuf, e.Mgr, mvpbt.Options{
		Name: name, Unique: true, BloomBits: opts.BloomBits, MaxPartitions: opts.MaxPartitions,
	})
	kv := &MVPBTKV{e: e, tree: t, name: name}
	if e.log != nil {
		if err := e.register(kv); err != nil {
			return nil, err
		}
	}
	return kv, nil
}

// snapshot implements store.
func (m *MVPBTKV) snapshot(tx *txn.Tx, emit func(key, row []byte) bool) error {
	return m.ScanTx(tx, nil, math.MaxInt, emit)
}

// reclaim implements store: garbage collection and a due partition merge.
func (m *MVPBTKV) reclaim() error { return reclaimTree(m.tree, m.name) }

// Tree exposes the underlying MV-PBT (statistics, partition counts).
func (m *MVPBTKV) Tree() *mvpbt.Tree { return m.tree }

// nextRef fabricates the next version identity. File id 0xFFFFFF marks
// synthetic rids (never dereferenced).
func (m *MVPBTKV) nextRef() index.Ref {
	return index.Ref{RID: storage.RecordID{Page: storage.NewPageID(0xFFFFFF, m.rid.Add(1)), Slot: 0}}
}

// Put implements KV: a BLIND upsert — a regular record with the value
// inline, no read-before-write. The unique-index visibility rule (the
// newest snapshot-visible record per key decides) makes the predecessor
// reference unnecessary; this is the LSM-like write path of §5: "Updates
// in MV-PBT hit PN".
func (m *MVPBTKV) Put(key, val []byte) error {
	return m.autocommit(func(tx *txn.Tx) error { return m.PutTx(tx, key, val) })
}

// autocommit runs a Put's or Delete's write in a transaction of its own and
// finishes it through the durable pipeline, surfacing a WAL flush failure as
// a typed error (wrapping storage.ErrIOFault or ErrClosed) instead of
// panicking the process: a persistent device fault on one shard must degrade
// that shard — observable by the supervisor — not take the server down. The
// handle is aborted so it cannot pin the GC horizon; durability stays in
// doubt per the CommitDurable contract (restart recovery resolves it from
// the log).
func (m *MVPBTKV) autocommit(write func(tx *txn.Tx) error) error {
	tx := m.e.Begin()
	if err := write(tx); err != nil {
		m.e.Abort(tx)
		return err
	}
	if err := m.e.CommitDurable(tx); err != nil {
		m.e.Abort(tx)
		return fmt.Errorf("db: autocommit: %w", err)
	}
	return nil
}

// PutTx is Put inside a caller-owned transaction: the upsert becomes
// visible to others only when the caller commits tx. The multi-shard
// router uses this to group writes to one shard under a single commit.
func (m *MVPBTKV) PutTx(tx *txn.Tx, key, val []byte) error {
	if err := m.e.writeGate(); err != nil {
		return err
	}
	if err := m.tree.InsertRegularVal(tx, key, m.nextRef(), val); err != nil {
		return m.e.noteWriteErr(err)
	}
	m.e.logOp(tx, wal.OpInsert, m.name, key, val)
	return nil
}

// Get implements KV.
func (m *MVPBTKV) Get(key []byte) ([]byte, bool, error) {
	tx := m.e.Begin()
	defer m.e.Commit(tx)
	return m.AppendGetTx(tx, nil, key)
}

// AppendGetTx is the one point lookup: at the snapshot of a caller-owned
// transaction, it appends key's value to dst and returns the extended
// buffer, or dst unchanged if the key has no visible value. The value is
// copied once, out of the leaf or P_N record it lies in; a server builds its
// reply in dst.
func (m *MVPBTKV) AppendGetTx(tx *txn.Tx, dst, key []byte) ([]byte, bool, error) {
	found := false
	err := m.tree.Lookup(tx, key, func(e index.Entry) bool {
		dst = append(dst, e.Val...)
		found = true
		return false
	})
	return dst, found, err
}

// Delete implements KV: a blind tombstone (no predecessor reference
// needed under unique-index visibility).
func (m *MVPBTKV) Delete(key []byte) error {
	return m.autocommit(func(tx *txn.Tx) error { return m.DeleteTx(tx, key) })
}

// DeleteTx is Delete inside a caller-owned transaction.
func (m *MVPBTKV) DeleteTx(tx *txn.Tx, key []byte) error {
	if err := m.e.writeGate(); err != nil {
		return err
	}
	if err := m.tree.InsertTombstone(tx, key, storage.RecordID{}); err != nil {
		return m.e.noteWriteErr(err)
	}
	m.e.logOp(tx, wal.OpDelete, m.name, key, nil)
	return nil
}

// Scan implements KV.
func (m *MVPBTKV) Scan(lo []byte, limit int, fn func(key, val []byte) bool) error {
	tx := m.e.Begin()
	defer m.e.Commit(tx)
	return m.ScanTx(tx, lo, limit, fn)
}

// ScanTx is Scan at the snapshot of a caller-owned transaction.
func (m *MVPBTKV) ScanTx(tx *txn.Tx, lo []byte, limit int, fn func(key, val []byte) bool) error {
	n := 0
	return m.tree.ScanLimit(tx, lo, nil, limit, func(e index.Entry) bool {
		if n >= limit {
			return false
		}
		n++
		return fn(e.Key, e.Val)
	})
}

var (
	_ KV = (*BTreeKV)(nil)
	_ KV = (*LSMKV)(nil)
	_ KV = (*MVPBTKV)(nil)
)
