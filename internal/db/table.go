package db

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"mvpbt/internal/wal"

	"mvpbt/internal/heap"
	"mvpbt/internal/index"
	"mvpbt/internal/index/btree"
	"mvpbt/internal/index/mvpbt"
	"mvpbt/internal/index/part"
	"mvpbt/internal/index/pbt"
	"mvpbt/internal/sfile"
	"mvpbt/internal/storage"
	"mvpbt/internal/txn"
	"mvpbt/internal/vid"
)

// HeapKind selects the base-table organization.
type HeapKind int

// Base-table organizations (§3, §5 "Experimental Setup").
const (
	// HeapHOT is the PostgreSQL-style heap with Heap-Only Tuples.
	HeapHOT HeapKind = iota
	// HeapSIAS is Snapshot Isolation Append Storage.
	HeapSIAS
)

func (k HeapKind) String() string {
	switch k {
	case HeapHOT:
		return "hot"
	case HeapSIAS:
		return "sias"
	}
	return fmt.Sprintf("HeapKind(%d)", int(k))
}

// IndexKind selects the index structure.
type IndexKind int

// Index structures under evaluation.
const (
	IdxBTree IndexKind = iota
	IdxPBT
	IdxMVPBT
)

// RefMode selects what index entries point at (§3.5).
type RefMode int

// Reference modes.
const (
	// RefPhysical stores recordIDs: direct access, but index maintenance
	// whenever the chain entry-point moves.
	RefPhysical RefMode = iota
	// RefLogical stores VIDs resolved through the indirection layer: no
	// maintenance for non-key updates.
	RefLogical
)

// IndexDef declares one index of a table.
type IndexDef struct {
	Name    string
	Kind    IndexKind
	RefMode RefMode
	Unique  bool
	// Extract derives the index key from a row payload.
	Extract func(row []byte) []byte
	// BloomBits / PrefixLen configure partition filters (PBT, MV-PBT). The
	// prefix filter holds every key prefix of PrefixLen bytes or more, and
	// a range scan whose bounds share at least PrefixLen bytes asks it for
	// the longest prefix they share.
	BloomBits int
	PrefixLen int
	// DisableGC turns off MV-PBT partition garbage collection.
	DisableGC bool
	// MaxPartitions adds MV-PBT's count-triggered merge above this many
	// partitions (0 = none; the garbage trigger runs regardless): of the
	// newer partitions, or all of them (mvpbt.Options.MaxPartitions).
	MaxPartitions int
	// NoIdxVC makes an MV-PBT behave version-obliviously for reads (the
	// Figure 12a ablation): scans return all matter records and the base
	// table performs the visibility check.
	NoIdxVC bool
}

// Index is one materialized index of a table: a version-oblivious tree
// (B-Tree or PBT) behind index.Candidates, or an MV-PBT — exactly one of
// cand and mv is set. Which tree cand holds matters to its constructor
// (newIndex) and to the one read dispatch (Index.candidates) only.
type Index struct {
	Def  IndexDef
	cand index.Candidates
	mv   *mvpbt.Tree
	file *sfile.File
	gen  int // rebuild generation (0 = original build)
}

// MV returns the underlying MV-PBT (nil for other kinds) for
// metadata/statistics access.
func (ix *Index) MV() *mvpbt.Tree { return ix.mv }

// PB returns the underlying PBT (nil for other kinds).
func (ix *Index) PB() *pbt.Tree {
	pb, _ := ix.cand.(*pbt.Tree)
	return pb
}

// newIndex creates generation gen of one index of table: its file and an
// empty tree over it (a rebuild's files are named <table>.<index>.r<gen>).
func (e *Engine) newIndex(table string, def IndexDef, gen int) (*Index, error) {
	name := table + "." + def.Name
	if gen > 0 {
		name = fmt.Sprintf("%s.r%d", name, gen)
	}
	ix := &Index{Def: def, file: e.FM.Create(name, sfile.ClassIndex), gen: gen}
	switch def.Kind {
	case IdxBTree:
		bt, err := btree.New(e.Pool, ix.file)
		if err != nil {
			return nil, err
		}
		ix.cand = bt
	case IdxPBT:
		ix.cand = pbt.New(e.Pool, ix.file, e.PBuf, pbt.Options{
			BloomBits: def.BloomBits, PrefixLen: def.PrefixLen,
		})
	case IdxMVPBT:
		ix.mv = mvpbt.New(e.Pool, ix.file, e.PBuf, e.Mgr, mvpbt.Options{
			Name: name, Unique: def.Unique,
			BloomBits: def.BloomBits, PrefixLen: def.PrefixLen,
			DisableGC: def.DisableGC, MaxPartitions: def.MaxPartitions,
		})
	default:
		return nil, fmt.Errorf("db: unknown index kind %d", def.Kind)
	}
	return ix, nil
}

// Table binds a heap to its indexes.
type Table struct {
	eng      *Engine
	name     string
	sias     *heap.SiasHeap // nil for a HOT heap
	h        heap.Heap
	vids     *vid.Table // allocates tuple identities; only a SIAS heap maps them to versions
	indexes  []*Index
	mu       sync.Mutex
	rebuilds atomic.Int64 // corrupt-index quarantine rebuilds
}

// Rebuilds returns how many times a corrupt version-oblivious index of this
// table was quarantined and rebuilt from the base table.
func (t *Table) Rebuilds() int64 { return t.rebuilds.Load() }

// NewTable creates a table with the given heap organization and indexes.
func (e *Engine) NewTable(name string, hk HeapKind, defs ...IndexDef) (*Table, error) {
	t := &Table{eng: e, name: name}
	hf := e.FM.Create(name+".heap", sfile.ClassTable)
	switch hk {
	case HeapHOT:
		t.h = heap.NewHotHeap(e.Pool, hf, e.Mgr)
		t.vids = vid.NewTable()
	case HeapSIAS:
		t.sias = heap.NewSiasHeap(e.Pool, hf, e.Mgr)
		t.h = t.sias
		t.vids = t.sias.VIDs()
	default:
		return nil, fmt.Errorf("db: unknown heap kind %d", hk)
	}
	for _, def := range defs {
		ix, err := e.newIndex(name, def, 0)
		if err != nil {
			return nil, err
		}
		t.indexes = append(t.indexes, ix)
	}
	if err := e.register(t); err != nil {
		return nil, err
	}
	return t, nil
}

// snapshot implements store.
func (t *Table) snapshot(tx *txn.Tx, emit func(key, row []byte) bool) error {
	return t.Scan(tx, t.indexes[0], nil, nil, true, func(r RowRef) bool { return emit(r.Key, r.Row) })
}

// reclaim implements store: garbage collection and due merges of the MV-PBT
// indexes, then a heap vacuum.
func (t *Table) reclaim() error {
	var errs error
	for _, ix := range t.indexes {
		if ix.mv != nil {
			errs = errors.Join(errs, reclaimTree(ix.mv, t.name+"."+ix.Def.Name))
		}
	}
	if _, err := t.Vacuum(); err != nil {
		errs = errors.Join(errs, fmt.Errorf("db: reclaim: vacuuming %s: %w", t.name, err))
	}
	return errs
}

// Indexes returns the table's indexes in definition order.
func (t *Table) Indexes() []*Index { return t.indexes }

// Index returns the index with the given name, or nil.
func (t *Table) Index(name string) *Index {
	for _, ix := range t.indexes {
		if ix.Def.Name == name {
			return ix
		}
	}
	return nil
}

// Heap exposes the underlying heap.
func (t *Table) Heap() heap.Heap { return t.h }

func (t *Table) ref(rid storage.RecordID, v uint64) index.Ref {
	return index.Ref{RID: rid, VID: v}
}

// RowRef identifies a visible row: its location, tuple identity, index
// key and (when requested) payload. RID, VID and Row may be kept: Row is a
// copy made from the heap for this RowRef.
type RowRef struct {
	RID storage.RecordID
	VID uint64
	// Key is the index key of the entry that produced this row; available
	// on scans and lookups even when Row is not fetched (index-only reads).
	//
	// LIFETIME: the Key a Scan hands to its callback is the index's own
	// (index.Entry.Key): it points into a buffer the scan reuses for the
	// next entry and is valid only until the callback returns. A RowRef kept
	// past that must copy it. The Key of a Lookup or LookupOne is the key
	// slice the caller passed in.
	Key []byte
	Row []byte
}

// Insert adds a new tuple and maintains every index. It returns the
// tuple's VID and initial version rid.
func (t *Table) Insert(tx *txn.Tx, row []byte) (uint64, storage.RecordID, error) {
	if err := t.eng.writeGate(); err != nil {
		return 0, storage.RecordID{}, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.eng.logOp(tx, wal.OpInsert, t.name, t.pkKey(row), row)
	v := t.vids.Alloc()
	rid, err := t.h.Insert(tx, v, row)
	if err != nil {
		return 0, storage.RecordID{}, t.eng.noteWriteErr(err)
	}
	for _, ix := range t.indexes {
		key := ix.Def.Extract(row)
		ref := t.ref(rid, v)
		var ierr error
		if ix.mv != nil {
			ierr = ix.mv.InsertRegular(tx, key, ref)
		} else {
			ierr = ix.cand.Insert(key, ref)
		}
		if ierr != nil {
			return 0, storage.RecordID{}, t.eng.noteWriteErr(ierr)
		}
	}
	return v, rid, nil
}

// Update replaces the version at old (which the caller found visible via a
// read) with newRow, maintaining indexes per their kind and reference
// mode. Write-write conflicts surface as heap.ErrWriteConflict.
func (t *Table) Update(tx *txn.Tx, old RowRef, newRow []byte) (storage.RecordID, error) {
	if err := t.eng.writeGate(); err != nil {
		return storage.RecordID{}, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	type keyPair struct {
		oldKey, newKey []byte
		changed        bool
	}
	var small [2]keyPair // on the stack for the usual one or two indexes
	pairs := small[:0]
	hotEligible := true
	for _, ix := range t.indexes {
		ok, nk := ix.Def.Extract(old.Row), ix.Def.Extract(newRow)
		changed := !bytes.Equal(ok, nk)
		pairs = append(pairs, keyPair{oldKey: ok, newKey: nk, changed: changed})
		if changed {
			hotEligible = false
		}
	}
	res, err := t.h.Update(tx, old.RID, old.VID, newRow, hotEligible)
	if err != nil {
		return storage.RecordID{}, t.eng.noteWriteErr(err)
	}
	t.eng.logOp(tx, wal.OpUpdate, t.name, t.pkKey(old.Row), newRow)
	newRID := res.NewRID
	for i, ix := range t.indexes {
		p := pairs[i]
		ref := t.ref(newRID, old.VID)
		var ierr error
		switch {
		case ix.mv != nil && p.changed:
			ierr = ix.mv.InsertKeyUpdate(tx, p.oldKey, p.newKey, ref, old.RID)
		case ix.mv != nil:
			ierr = ix.mv.InsertReplacement(tx, p.oldKey, ref, old.RID)
		case p.changed || (ix.Def.RefMode == RefPhysical && res.NeedsIndexUpdate):
			// Version-oblivious maintenance: a new entry is needed when
			// the key changed, or — with physical references — whenever
			// the entry-point moved (SIAS: every update; HOT: non-HOT
			// updates). Logical references ride the indirection layer.
			ierr = ix.cand.Insert(p.newKey, ref)
		}
		if ierr != nil {
			return storage.RecordID{}, t.eng.noteWriteErr(ierr)
		}
	}
	return newRID, nil
}

// Delete removes the tuple whose visible version is old.
func (t *Table) Delete(tx *txn.Tx, old RowRef) error {
	if err := t.eng.writeGate(); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, err := t.h.Delete(tx, old.RID, old.VID); err != nil {
		return t.eng.noteWriteErr(err)
	}
	t.eng.logOp(tx, wal.OpDelete, t.name, t.pkKey(old.Row), nil)
	for _, ix := range t.indexes {
		if ix.mv != nil {
			if err := ix.mv.InsertTombstone(tx, ix.Def.Extract(old.Row), old.RID); err != nil {
				return t.eng.noteWriteErr(err)
			}
		}
		// Version-oblivious indexes are left alone: the heap's
		// invalidation (HOT) or tombstone version (SIAS) hides the tuple,
		// and dead entries go with vacuum (PostgreSQL semantics).
	}
	return nil
}

// Vacuum reclaims dead versions in the heap.
func (t *Table) Vacuum() (int, error) {
	return t.h.Vacuum(t.eng.Mgr.Horizon())
}

// RebuildIndex quarantines a corrupt version-oblivious index (B-Tree or
// PBT) and rebuilds it from the base table: the heap streams its index
// entry-points (Heap.ScanVersions), a fresh tree is built in a new file,
// the table swaps over to it, and the old file's pages are dropped from the
// buffer pool and freed on the device. The base table is the source of
// truth, so derived-structure corruption is recoverable; errors reading the
// HEAP during the rebuild are surfaced unchanged — those are not.
//
// MV-PBT indexes cannot be rebuilt this way: their entries carry
// per-version transactional metadata (invalidation records, tombstones)
// tied to live transaction state. Corruption there is a hard error.
func (t *Table) RebuildIndex(ix *Index) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ix.cand == nil {
		return fmt.Errorf("db: index %s.%s is not version-oblivious and cannot be rebuilt from the base table", t.name, ix.Def.Name)
	}
	e := t.eng
	fresh, err := e.newIndex(t.name, ix.Def, ix.gen+1)
	if err != nil {
		return err
	}
	var ierr error
	err = t.h.ScanVersions(func(rid storage.RecordID, v heap.Version) bool {
		ierr = fresh.cand.Insert(ix.Def.Extract(v.Data), index.Ref{RID: rid, VID: v.VID})
		return ierr == nil
	})
	if err != nil {
		return err // heap unreadable: the rebuild source itself is damaged
	}
	if ierr != nil {
		return ierr
	}
	old, oldCand := ix.file, ix.cand
	ix.cand, ix.file, ix.gen = fresh.cand, fresh.file, fresh.gen
	if owner, ok := oldCand.(part.Owner); ok {
		e.PBuf.Unregister(owner)
	}
	if n := old.NumPages(); n > 0 {
		e.Pool.DropFilePages(old, 0, int(n))
		old.FreeRun(0, int(n))
	}
	t.rebuilds.Add(1)
	return nil
}
