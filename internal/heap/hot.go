package heap

import (
	"cmp"
	"sync"

	"mvpbt/internal/buffer"
	"mvpbt/internal/page"
	"mvpbt/internal/sfile"
	"mvpbt/internal/storage"
	"mvpbt/internal/txn"
)

// HotHeap is the PostgreSQL-style base table: old-to-new version chains,
// two-point invalidation with in-place timestamp updates, and Heap-Only
// Tuples — a non-key update whose successor fits on the same page extends
// the chain without touching any index; otherwise the successor starts a
// new chain segment with its own index entries.
//
// Chains are walk-isolated per segment (like PostgreSQL's heap_hot_search):
// a visibility walk entering a record flagged SegmentRoot from a
// predecessor stops — that version is reached through its own index entry.
type HotHeap struct {
	// mu serializes page mutations against readers: writers take the
	// exclusive lock, visibility walks the shared one. Critical sections
	// are per-call — a long scan acquires it once per candidate, so
	// readers and writers interleave freely (MVCC does the real isolation).
	mu   sync.RWMutex
	pool *buffer.Pool
	file *sfile.File
	mgr  *txn.Manager

	insertPage uint64
	hasInsert  bool
	freePages  []uint64 // pages with reclaimed space (filled by Vacuum)

	enc     encoder
	oldData []byte // supersede's copy of the payload the successor's Insert may move
}

// NewHotHeap returns an empty HOT heap stored in file.
func NewHotHeap(pool *buffer.Pool, file *sfile.File, mgr *txn.Manager) *HotHeap {
	return &HotHeap{pool: pool, file: file, mgr: mgr}
}

// placeRecord inserts rec into a page with space (the current insert
// target, a vacuumed page, or a fresh page) and returns its record id.
func (h *HotHeap) placeRecord(rec []byte) (storage.RecordID, error) {
	if h.hasInsert {
		if rid, ok, err := h.tryInsertAt(h.insertPage, rec); err != nil || ok {
			return rid, err
		}
	}
	for len(h.freePages) > 0 {
		pg := h.freePages[len(h.freePages)-1]
		h.freePages = h.freePages[:len(h.freePages)-1]
		if rid, ok, err := h.tryInsertAt(pg, rec); err != nil {
			return storage.RecordID{}, err
		} else if ok {
			h.insertPage, h.hasInsert = pg, true
			return rid, nil
		}
	}
	fr, pageNo, err := h.pool.NewPage(h.file)
	if err != nil {
		return storage.RecordID{}, err
	}
	p := page.Wrap(fr.Data())
	p.Init()
	slot, ok := p.Insert(rec)
	h.pool.Unpin(fr, true)
	if !ok {
		return storage.RecordID{}, errRecordTooLarge
	}
	h.insertPage, h.hasInsert = pageNo, true
	return storage.RecordID{Page: h.file.PageID(pageNo), Slot: uint16(slot)}, nil
}

func (h *HotHeap) tryInsertAt(pageNo uint64, rec []byte) (storage.RecordID, bool, error) {
	fr, err := h.pool.Get(h.file, pageNo)
	if err != nil {
		return storage.RecordID{}, false, err
	}
	p := page.Wrap(fr.Data())
	slot, ok := p.Insert(rec)
	h.pool.Unpin(fr, ok)
	if !ok {
		return storage.RecordID{}, false, nil
	}
	return storage.RecordID{Page: h.file.PageID(pageNo), Slot: uint16(slot)}, true, nil
}

// Insert implements Heap.
func (h *HotHeap) Insert(tx *txn.Tx, vid uint64, data []byte) (storage.RecordID, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	v := Version{SegmentRoot: true, TCreate: tx.ID, VID: vid, Data: data}
	return h.placeRecord(h.enc.encode(&v))
}

// Update implements Heap. prev must be the currently visible version of
// the tuple (found via an index); first-updater-wins conflicts return
// ErrWriteConflict.
func (h *HotHeap) Update(tx *txn.Tx, prev storage.RecordID, vid uint64, data []byte, hotEligible bool) (UpdateResult, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.supersede(tx, prev, vid, data, hotEligible, false)
}

// Delete implements Heap. PostgreSQL-style deletion under two-point
// invalidation just stamps the invalidation timestamp in place — no
// tombstone record is needed.
func (h *HotHeap) Delete(tx *txn.Tx, prev storage.RecordID, vid uint64) (UpdateResult, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	fr, p, v, err := h.claim(tx, prev)
	if err != nil {
		return UpdateResult{}, err
	}
	v.TInvalidate = tx.ID
	v.Next = storage.RecordID{}
	ok := p.Replace(int(prev.Slot), h.enc.encode(&v)) // encoded before Replace moves v.Data
	h.pool.Unpin(fr, ok)
	if !ok {
		return UpdateResult{}, errRecordTooLarge
	}
	return UpdateResult{}, nil
}

// claim pins prev's page and decodes the version tx is about to supersede,
// enforcing first-updater-wins: a vanished record, or an invalidation by a
// committed or still-running other transaction, is ErrWriteConflict; one by
// an aborted transaction (or by tx itself) may be overwritten. The page
// stays pinned unless an error is returned.
func (h *HotHeap) claim(tx *txn.Tx, prev storage.RecordID) (*buffer.Frame, page.Page, Version, error) {
	fr, v, ok, err := pinVersion(h.pool, h.file, prev)
	if !ok {
		return nil, page.Page{}, v, cmp.Or(err, ErrWriteConflict)
	}
	if v.TInvalidate != txn.InvalidTxID && v.TInvalidate != tx.ID && h.mgr.StatusOf(v.TInvalidate) != txn.Aborted {
		h.pool.Unpin(fr, false)
		return nil, page.Page{}, v, ErrWriteConflict
	}
	return fr, page.Wrap(fr.Data()), v, nil
}

func (h *HotHeap) supersede(tx *txn.Tx, prev storage.RecordID, vid uint64, data []byte, hotEligible, tombstone bool) (UpdateResult, error) {
	fr, p, old, err := h.claim(tx, prev)
	if err != nil {
		return UpdateResult{}, err
	}
	h.oldData = append(h.oldData[:0], old.Data...)
	old.Data = h.oldData

	succ := Version{Tombstone: tombstone, TCreate: tx.ID, VID: vid, Data: data}
	var newRID storage.RecordID
	hot := false
	dirtied := false
	if hotEligible {
		if slot, ok := p.Insert(h.enc.encode(&succ)); ok {
			newRID = storage.RecordID{Page: prev.Page, Slot: uint16(slot)}
			hot = true
			dirtied = true
		}
	}
	if !hot {
		// Non-HOT: the successor starts a new segment elsewhere and needs
		// its own index entries.
		succ.SegmentRoot = true
		h.pool.Unpin(fr, false)
		newRID, err = h.placeRecord(h.enc.encode(&succ))
		if err != nil {
			return UpdateResult{}, err
		}
		fr, err = h.pool.Get(h.file, prev.Page.PageNo())
		if err != nil {
			return UpdateResult{}, err
		}
		p = page.Wrap(fr.Data())
	}
	// Two-point invalidation: stamp the predecessor in place.
	old.TInvalidate = tx.ID
	old.Next = newRID
	ok := p.Replace(int(prev.Slot), h.enc.encode(&old))
	h.pool.Unpin(fr, dirtied || ok)
	if !ok {
		return UpdateResult{}, errRecordTooLarge
	}
	return UpdateResult{NewRID: newRID, NeedsIndexUpdate: !hot}, nil
}

// Visible implements Heap: it walks the chain segment starting at
// candidate (old-to-new) and returns the version visible to tx, fetching
// every hop's page — the random-read cost of the standard visibility
// check.
func (h *HotHeap) Visible(tx *txn.Tx, candidate storage.RecordID) (VisibleVersion, bool, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	rid := candidate
	for rid.Valid() {
		fr, v, ok, err := pinVersion(h.pool, h.file, rid)
		if !ok {
			return VisibleVersion{}, false, err
		}
		if v.Redirect {
			// Pruned entry-point: forward to the surviving version.
			next := v.Next
			h.pool.Unpin(fr, false)
			candidate, rid = next, next
			continue
		}
		if v.SegmentRoot && rid != candidate {
			// Crossed into the next segment: that version belongs to its
			// own index entry.
			h.pool.Unpin(fr, false)
			return VisibleVersion{}, false, nil
		}
		if tx.Sees(v.TCreate) && (v.TInvalidate == txn.InvalidTxID || !tx.Sees(v.TInvalidate)) {
			if v.Tombstone {
				h.pool.Unpin(fr, false)
				return VisibleVersion{}, false, nil
			}
			out := VisibleVersion{RID: rid, VID: v.VID, Data: append([]byte(nil), v.Data...)}
			h.pool.Unpin(fr, false)
			return out, true, nil
		}
		next := v.Next
		h.pool.Unpin(fr, false)
		rid = next
	}
	return VisibleVersion{}, false, nil
}

// ReadVersion implements Heap. Redirect stubs left behind by pruning are
// followed transparently.
func (h *HotHeap) ReadVersion(rid storage.RecordID) (Version, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.readVersionLocked(rid)
}

func (h *HotHeap) readVersionLocked(rid storage.RecordID) (Version, error) {
	for rid.Valid() {
		fr, v, ok, err := pinVersion(h.pool, h.file, rid)
		if !ok {
			return Version{}, cmp.Or[error](err, errRecordGone)
		}
		if v.Redirect {
			next := v.Next
			h.pool.Unpin(fr, false)
			rid = next
			continue
		}
		v.Data = append([]byte(nil), v.Data...)
		h.pool.Unpin(fr, false)
		return v, nil
	}
	return Version{}, errRecordGone
}

// ScanVersions implements Heap: it streams the heap's index entry-points —
// every chain-segment root, since those are the versions HOT gives their own
// index entries (initial inserts and non-HOT successors). Redirect stubs are
// resolved to the surviving version's payload but reported at the stub's rid
// (the stable location index entries reference). Visibility is NOT applied:
// the stream is the raw material for rebuilding a version-oblivious index,
// whose readers run their own base-table visibility check per candidate.
func (h *HotHeap) ScanVersions(fn func(rid storage.RecordID, v Version) bool) error {
	h.mu.RLock()
	defer h.mu.RUnlock()
	nPages := h.file.NumPages()
	for pageNo := uint64(0); pageNo < nPages; pageNo++ {
		fr, err := h.pool.Get(h.file, pageNo)
		if err != nil {
			return err
		}
		p := page.Wrap(fr.Data())
		pid := h.file.PageID(pageNo)
		type root struct {
			rid storage.RecordID
			v   Version
		}
		var roots []root
		for s := 0; s < p.NumSlots(); s++ {
			rec := p.Get(s)
			if rec == nil {
				continue
			}
			v, err := decodeVersion(rec)
			if err != nil {
				h.pool.Unpin(fr, false)
				return err
			}
			if !v.SegmentRoot {
				continue
			}
			v.Data = append([]byte(nil), v.Data...)
			roots = append(roots, root{rid: storage.RecordID{Page: pid, Slot: uint16(s)}, v: v})
		}
		h.pool.Unpin(fr, false)
		for _, rt := range roots {
			v := rt.v
			if v.Redirect {
				// Resolve the stub to the survivor it forwards to; a stub
				// whose target vanished has no tuple left to index.
				resolved, err := h.readVersionLocked(rt.rid)
				if err == errRecordGone {
					continue
				}
				if err != nil {
					return err
				}
				resolved.VID = v.VID
				v = resolved
			}
			if !fn(rt.rid, v) {
				return nil
			}
		}
	}
	return nil
}

// Vacuum implements Heap: PostgreSQL-style page pruning. For every chain
// segment root it collapses the same-page prefix of dead versions
// (invalidated below the horizon, or created by aborted transactions) into
// the root slot, so the root rid — the one indexes point at — stays valid
// while the space is reclaimed.
func (h *HotHeap) Vacuum(horizon txn.TxID) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	removed := 0
	nPages := h.file.NumPages()
	for pageNo := uint64(0); pageNo < nPages; pageNo++ {
		fr, err := h.pool.Get(h.file, pageNo)
		if err != nil {
			return removed, err
		}
		p := page.Wrap(fr.Data())
		n, dirty, err := h.prunePage(p, h.file.PageID(pageNo), horizon)
		removed += n
		h.pool.Unpin(fr, dirty)
		if err != nil {
			return removed, err
		}
		if dirty && p.FreeSpace() > storage.PageSize/2 {
			h.freePages = append(h.freePages, pageNo)
		}
	}
	return removed, nil
}

func (h *HotHeap) dead(v *Version, horizon txn.TxID) bool {
	if h.mgr.StatusOf(v.TCreate) == txn.Aborted {
		return true
	}
	return v.TInvalidate != txn.InvalidTxID && v.TInvalidate < horizon &&
		h.mgr.StatusOf(v.TInvalidate) == txn.Committed
}

// prunePage collapses dead same-page chain prefixes. It returns the number
// of records removed and whether the page was modified; a record it cannot
// decode stops it there.
func (h *HotHeap) prunePage(p page.Page, pid storage.PageID, horizon txn.TxID) (int, bool, error) {
	removed, dirty := 0, false
	nSlots := p.NumSlots()
	inChain := make(map[int]bool)
	type root struct {
		slot int
		v    Version
	}
	var roots []root
	for s := 0; s < nSlots; s++ {
		rec := p.Get(s)
		if rec == nil {
			continue
		}
		v, err := decodeVersion(rec)
		if err != nil {
			return removed, dirty, err
		}
		if v.SegmentRoot {
			roots = append(roots, root{slot: s, v: v})
		}
		if v.Next.Page == pid {
			inChain[int(v.Next.Slot)] = true
		}
	}
	for _, rt := range roots {
		// Collect the same-page chain: root → successors until the chain
		// leaves the page or reaches the next segment.
		slots := []int{rt.slot}
		vers := []Version{rt.v}
		cur := rt.v
		for cur.Next.Valid() && cur.Next.Page == pid {
			rec := p.Get(int(cur.Next.Slot))
			if rec == nil {
				break
			}
			nv, err := decodeVersion(rec)
			if err != nil {
				return removed, dirty, err
			}
			if nv.SegmentRoot {
				break
			}
			slots = append(slots, int(cur.Next.Slot))
			vers = append(vers, nv)
			cur = nv
		}
		// Find the first version worth keeping. A redirect root holds no
		// tuple, so the search starts behind it.
		start := 0
		if rt.v.Redirect {
			start = 1
		}
		keep := start
		for keep < len(vers)-1 && h.dead(&vers[keep], horizon) {
			keep++
		}
		if keep == start && rt.v.Redirect {
			continue // redirect already points at the survivor
		}
		if keep == 0 {
			continue // root version itself is still needed
		}
		// The survivor must stay at its own slot — MV-PBT records reference
		// mid-chain versions directly — so the root becomes a redirect stub
		// and only the dead versions between them are deleted.
		stub := Version{SegmentRoot: true, Redirect: true, VID: rt.v.VID,
			Next: storage.RecordID{Page: pid, Slot: uint16(slots[keep])}}
		if !p.Replace(rt.slot, h.enc.encode(&stub)) {
			continue
		}
		if !rt.v.Redirect {
			removed++ // the root's dead tuple was reclaimed in place
		}
		for i := start; i < keep; i++ {
			if i == 0 {
				continue // root slot was replaced, not deleted
			}
			p.Delete(slots[i])
			removed++
		}
		dirty = true
	}
	// Aborted versions that are not roots and not linked from anything on
	// this page are unreachable orphans.
	for s := 0; s < p.NumSlots(); s++ {
		rec := p.Get(s)
		if rec == nil || inChain[s] {
			continue
		}
		v, err := decodeVersion(rec)
		if err != nil {
			return removed, dirty, err
		}
		if !v.SegmentRoot && h.mgr.StatusOf(v.TCreate) == txn.Aborted {
			p.Delete(s)
			removed++
			dirty = true
		}
	}
	return removed, dirty, nil
}

type heapError string

func (e heapError) Error() string { return string(e) }

const (
	errRecordTooLarge = heapError("heap: record exceeds page capacity")
	errRecordGone     = heapError("heap: record no longer exists")
)
