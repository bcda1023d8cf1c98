// Package mvpbt is a from-scratch Go implementation of the Multi-Version
// Partitioned B-Tree (Riegger, Vinçon, Gottstein, Petrov: "MV-PBT:
// Multi-Version Indexing for Large Datasets and HTAP Workloads", EDBT
// 2020) together with the complete storage engine it lives in: an MVCC
// transaction manager with snapshot isolation, two base-table heap
// organizations (PostgreSQL-style HOT and SIAS append storage), baseline
// indexes (B⁺-Tree, Partitioned B-Tree, LSM-Tree), a buffer manager, and
// a simulated enterprise flash device with the I/O asymmetry of the
// paper's testbed.
//
// # Quick start
//
//	eng := mvpbt.NewEngine(mvpbt.Config{})
//	tbl, _ := eng.NewTable("accounts", mvpbt.HeapSIAS, mvpbt.IndexDef{
//		Name: "pk", Kind: mvpbt.IdxMVPBT, Unique: true,
//		BloomBits: 10, Extract: myKeyExtractor,
//	})
//	tx := eng.Begin()
//	tbl.Insert(tx, row)
//	eng.Commit(tx)
//
// Reads run against transaction snapshots; MV-PBT indexes answer lookups
// and scans with the index-only visibility check — no base-table access is
// needed to decide which versions a transaction sees.
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// reproduction of every figure in the paper's evaluation.
package mvpbt

import (
	"mvpbt/internal/db"
	"mvpbt/internal/index/lsm"
	"mvpbt/internal/ssd"
	"mvpbt/internal/txn"
)

// Engine is the storage engine: device, buffer pool, transaction manager
// and the shared MV-PBT partition buffer.
type Engine = db.Engine

// Config sizes an Engine.
type Config = db.Config

// NewEngine builds an engine.
func NewEngine(cfg Config) *Engine { return db.NewEngine(cfg) }

// Tx is a transaction handle (snapshot isolation).
type Tx = txn.Tx

// Table binds a base-table heap to its indexes.
type Table = db.Table

// Index is one index of a table.
type Index = db.Index

// IndexDef declares an index.
type IndexDef = db.IndexDef

// RowRef identifies a visible row version. Its Key, when it comes from a
// Scan, is valid only until the scan's callback returns; the rest may be
// kept.
type RowRef = db.RowRef

// Heap organizations (paper §3).
const (
	// HeapHOT is the PostgreSQL-style heap with Heap-Only Tuples:
	// old-to-new chains, two-point invalidation, in-place updates.
	HeapHOT = db.HeapHOT
	// HeapSIAS is Snapshot Isolation Append Storage: append-only,
	// new-to-old chains, one-point invalidation.
	HeapSIAS = db.HeapSIAS
)

// Index structures (paper §5).
const (
	// IdxBTree is the mutable, version-oblivious B⁺-Tree baseline.
	IdxBTree = db.IdxBTree
	// IdxPBT is the version-oblivious Partitioned B-Tree.
	IdxPBT = db.IdxPBT
	// IdxMVPBT is the paper's contribution: the version-aware Multi-Version
	// Partitioned B-Tree with index-only visibility checks.
	IdxMVPBT = db.IdxMVPBT
)

// Reference modes (paper §3.5).
const (
	// RefPhysical stores recordIDs in index entries.
	RefPhysical = db.RefPhysical
	// RefLogical stores VIDs resolved through the indirection layer.
	RefLogical = db.RefLogical
)

// KV is the key-value engine interface shared by the three engines of the
// paper's YCSB comparison.
type KV = db.KV

// LSMOptions tunes the LSM-Tree KV engine.
type LSMOptions = lsm.Options

// MVPBTKVOptions tunes the MV-PBT KV engine.
type MVPBTKVOptions = db.MVPBTKVOptions

// NewBTreeKV creates a clustered B-Tree KV engine.
func NewBTreeKV(e *Engine, name string) (KV, error) { return db.NewBTreeKV(e, name) }

// NewLSMKV creates an LSM-Tree KV engine.
func NewLSMKV(e *Engine, name string, opts LSMOptions) KV { return db.NewLSMKV(e, name, opts) }

// NewMVPBTKV creates a clustered MV-PBT KV engine (the paper's WiredTiger
// integration shape).
func NewMVPBTKV(e *Engine, name string, opts MVPBTKVOptions) (KV, error) {
	return db.NewMVPBTKV(e, name, opts)
}

// IntelP3600 is the device latency profile of the paper's Figure 8.
var IntelP3600 = ssd.IntelP3600
