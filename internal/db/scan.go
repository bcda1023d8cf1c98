package db

import (
	"errors"
	"fmt"

	"mvpbt/internal/heap"
	"mvpbt/internal/index"
	"mvpbt/internal/index/btree"
	"mvpbt/internal/index/pbt"
	"mvpbt/internal/storage"
	"mvpbt/internal/txn"
)

// Scan streams the rows visible to tx whose index key is in [lo, hi)
// through fn. withRows controls whether Row payloads are fetched from the
// heap (counting/existence queries over MV-PBT can skip that entirely —
// the index-only path of §4.4). The RowRef's Key is valid only until fn
// returns (see RowRef.Key); everything else in it may be kept.
//
// The visibility-check strategy follows the index kind:
//   - MV-PBT (unless NoIdxVC): the index returns visible entries.
//   - B-Tree / PBT / MV-PBT with NoIdxVC: the index returns candidates and
//     each one is verified against the base table (chain walks, random
//     reads), then deduplicated and rechecked against the predicate.
//
// Error handling separates the two storage structures involved: an error
// from the BASE TABLE (heap page unreadable or corrupt) is always surfaced
// as-is — the heap is the source of truth and nothing can regenerate it. A
// checksum failure inside a version-oblivious INDEX is recoverable: the
// index is quarantined, rebuilt from the heap (Table.RebuildIndex) and the
// operation retried once. Rows already delivered before the first attempt
// failed are not re-delivered (the dedup set spans both attempts).
func (t *Table) Scan(tx *txn.Tx, ix *Index, lo, hi []byte, withRows bool, fn func(RowRef) bool) error {
	return t.read(tx, ix, lo, hi, false, withRows, fn)
}

// Lookup streams the visible rows with exactly this index key: the point
// case of Scan's read, with the same strategy and error handling. The
// RowRef's Key is the caller's key slice.
func (t *Table) Lookup(tx *txn.Tx, ix *Index, key []byte, withRows bool, fn func(RowRef) bool) error {
	return t.read(tx, ix, key, nil, true, withRows, fn)
}

// read is the one read behind Scan and Lookup: index key == lo when point,
// lo <= key < hi otherwise.
func (t *Table) read(tx *txn.Tx, ix *Index, lo, hi []byte, point, withRows bool, fn func(RowRef) bool) error {
	if ix.mv == nil || ix.Def.NoIdxVC {
		return t.readOblivious(tx, ix, lo, hi, point, fn)
	}
	var heapErr error
	visit := func(e index.Entry) bool {
		rr := RowRef{RID: e.Ref.RID, VID: e.Ref.VID, Key: e.Key}
		if withRows {
			v, err := t.h.ReadVersion(e.Ref.RID)
			if err != nil {
				heapErr = err
				return false
			}
			rr.Row = v.Data
		}
		return fn(rr)
	}
	var err error
	if point {
		err = ix.mv.Lookup(tx, lo, visit)
	} else {
		err = ix.mv.Scan(tx, lo, hi, visit)
	}
	if heapErr != nil {
		return heapErr
	}
	return err
}

// readOblivious is read over candidates: each is verified against the base
// table, deduplicated and rechecked against the predicate. A point read is
// the range [lo, lo+"\x00") to everything but the index's own point lookup.
// The bound (index.PointBound), the set of RIDs seen (a map that does not
// escape keeps eight on the stack) and the visible versions stay off the
// heap: a read allocates the row copies it hands out (TestHotPathAllocGate).
func (t *Table) readOblivious(tx *txn.Tx, ix *Index, lo, hi []byte, point bool, fn func(RowRef) bool) error {
	var bound [32]byte
	if point {
		hi = index.PointBound(&bound, lo)
	}
	seen := make(map[storage.RecordID]bool)
	var heapErr error
	visit := func(e index.Entry) bool {
		vv, ok, err := t.resolveVisible(tx, ix, e)
		if err != nil {
			heapErr = err
			return false
		}
		if !ok || seen[vv.RID] {
			return true
		}
		seen[vv.RID] = true
		// Predicate recheck: the candidate entry may be stale (older or
		// newer key value than the visible version's).
		k := ix.Def.Extract(vv.Data)
		if !index.KeyInRange(k, lo, hi) {
			return true
		}
		if point {
			k = lo
		}
		return fn(RowRef{RID: vv.RID, VID: vv.VID, Key: k, Row: vv.Data})
	}
	run := func() error {
		heapErr = nil
		if ix.mv != nil {
			return ix.mv.ScanAllMatter(lo, hi, visit)
		}
		return ix.candidates(lo, hi, point, visit)
	}
	return t.runWithRebuild(ix, run, &heapErr)
}

// runWithRebuild executes one index read, separating heap errors (stashed
// by the visit closure in *heapErr — always hard) from index errors. A
// corrupt page inside a rebuildable index triggers one quarantine-rebuild
// and one retry; if the rebuild itself fails, the ORIGINAL corruption error
// is returned (the rebuild failure is a consequence, not the cause).
func (t *Table) runWithRebuild(ix *Index, run func() error, heapErr *error) error {
	err := run()
	if *heapErr != nil {
		return *heapErr
	}
	if err != nil && errors.Is(err, storage.ErrCorruptPage) && ix.cand != nil {
		if rerr := t.RebuildIndex(ix); rerr != nil {
			return err
		}
		if err = run(); *heapErr != nil {
			return *heapErr
		}
	}
	return err
}

// candidates is the version-oblivious tree's read: the entries with key == lo
// (point) or in [lo, hi). The calls are made on the concrete type on purpose.
// Through the index.Candidates interface the compiler cannot see what the
// tree does with visit, so visit — and with it the callback of every caller
// of Scan and Lookup, MV-PBT readers included — would be allocated on the
// heap: two allocations per Table read, 3 % of the htap benchmark's
// alloc_kb_per_op (measured). Writes carry no callback and go through the
// interface.
func (ix *Index) candidates(lo, hi []byte, point bool, visit func(index.Entry) bool) error {
	switch c := ix.cand.(type) {
	case *btree.Tree:
		if point {
			return c.LookupCandidates(lo, visit)
		}
		return c.ScanCandidates(lo, hi, visit)
	case *pbt.Tree:
		if point {
			return c.LookupCandidates(lo, visit)
		}
		return c.ScanCandidates(lo, hi, visit)
	}
	return fmt.Errorf("db: index %s: no candidate read for %T", ix.Def.Name, ix.cand)
}

// resolveVisible performs the base-table visibility check for one
// candidate (logical references resolve through the indirection layer).
func (t *Table) resolveVisible(tx *txn.Tx, ix *Index, e index.Entry) (heap.VisibleVersion, bool, error) {
	if ix.Def.RefMode == RefLogical && t.sias != nil {
		return t.sias.VisibleByVID(tx, e.Ref.VID)
	}
	return t.h.Visible(tx, e.Ref.RID)
}

// LookupOne returns the single visible row for key, and whether there is
// one — the point-query path of unique indexes. The row is returned by
// value: a read allocates only the Row copy it hands out.
func (t *Table) LookupOne(tx *txn.Tx, ix *Index, key []byte, withRows bool) (RowRef, bool, error) {
	var out RowRef
	found := false
	err := t.Lookup(tx, ix, key, withRows, func(r RowRef) bool {
		out, found = r, true
		return false
	})
	return out, found, err
}

// Count returns the number of visible rows with key in [lo, hi) — the
// paper's COUNT(*) example (Figure 2). Over MV-PBT this touches no base
// table pages at all.
func (t *Table) Count(tx *txn.Tx, ix *Index, lo, hi []byte) (int, error) {
	n := 0
	err := t.Scan(tx, ix, lo, hi, false, func(RowRef) bool {
		n++
		return true
	})
	return n, err
}
