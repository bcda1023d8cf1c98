package heap

import (
	"errors"
	"sync"

	"mvpbt/internal/buffer"
	"mvpbt/internal/page"
	"mvpbt/internal/sfile"
	"mvpbt/internal/storage"
	"mvpbt/internal/txn"
	"mvpbt/internal/vid"
)

// SiasHeap is the Snapshot Isolation Append Storage base table (§3.6,
// [9,11]): every new tuple-version is appended to the tail page, versions
// are chained new-to-old, invalidation is one-point (the existence of a
// successor invalidates the predecessor — no in-place timestamp writes),
// and an intrinsic VID indirection table maps each tuple to its chain
// entry-point (the newest version). A tail page that fills is sealed
// (buffer.Pool.Seal): the pool writes sealed pages back an extent's worth at
// a time in page order, so each table's appends reach the device as a run —
// the sequential base-table write pattern the paper's storage tradeoffs call
// for (§3.7), kept when several tables append at once.
type SiasHeap struct {
	// mu serializes page mutations against readers (see HotHeap.mu).
	mu   sync.RWMutex
	pool *buffer.Pool
	file *sfile.File
	mgr  *txn.Manager
	vids *vid.Table

	tail    uint64
	hasTail bool
	enc     encoder
}

// NewSiasHeap returns an empty SIAS heap stored in file.
func NewSiasHeap(pool *buffer.Pool, file *sfile.File, mgr *txn.Manager) *SiasHeap {
	return &SiasHeap{pool: pool, file: file, mgr: mgr, vids: vid.NewTable()}
}

// File returns the heap's storage file.
func (h *SiasHeap) File() *sfile.File { return h.file }

// VIDs exposes the indirection table (logical-reference indexes resolve
// through it).
func (h *SiasHeap) VIDs() *vid.Table { return h.vids }

// append places rec on the tail page, sealing a full tail for write-back in
// page order with the pool's other sealed pages and starting a new one.
func (h *SiasHeap) append(rec []byte) (storage.RecordID, error) {
	if h.hasTail {
		fr, err := h.pool.Get(h.file, h.tail)
		if err != nil {
			return storage.RecordID{}, err
		}
		p := page.Wrap(fr.Data())
		if slot, ok := p.Insert(rec); ok {
			h.pool.Unpin(fr, true)
			return storage.RecordID{Page: h.file.PageID(h.tail), Slot: uint16(slot)}, nil
		}
		h.pool.Unpin(fr, false)
		h.pool.Seal(h.file, h.tail)
	}
	fr, pageNo, err := h.pool.NewPage(h.file)
	if err != nil {
		return storage.RecordID{}, err
	}
	p := page.Wrap(fr.Data())
	p.Init()
	slot, ok := p.Insert(rec)
	h.pool.Unpin(fr, ok)
	if !ok {
		return storage.RecordID{}, errRecordTooLarge
	}
	h.tail, h.hasTail = pageNo, true
	return storage.RecordID{Page: h.file.PageID(pageNo), Slot: uint16(slot)}, nil
}

// Insert implements Heap.
func (h *SiasHeap) Insert(tx *txn.Tx, v uint64, data []byte) (storage.RecordID, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	rec := Version{TCreate: tx.ID, VID: v, Data: data}
	rid, err := h.append(h.enc.encode(&rec))
	if err != nil {
		return storage.RecordID{}, err
	}
	h.vids.Set(v, rid)
	return rid, nil
}

// Update implements Heap. SIAS ignores hotEligible: every update appends a
// new entry-point, so index maintenance is always required for
// physical-reference indexes.
func (h *SiasHeap) Update(tx *txn.Tx, prev storage.RecordID, v uint64, data []byte, _ bool) (UpdateResult, error) {
	return h.supersede(tx, prev, v, data, false)
}

// Delete implements Heap: appends a tombstone version (the logical end of
// the chain — §4.1's tombstone tuple-version).
func (h *SiasHeap) Delete(tx *txn.Tx, prev storage.RecordID, v uint64) (UpdateResult, error) {
	return h.supersede(tx, prev, v, nil, true)
}

func (h *SiasHeap) supersede(tx *txn.Tx, prev storage.RecordID, v uint64, data []byte, tombstone bool) (UpdateResult, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	// First-updater-wins: if the chain moved past prev, somebody else
	// already superseded prev — unless every newer version was written by
	// a since-aborted transaction. The entry-point alone is not enough: an
	// aborted head may sit on top of a committed update that DOES conflict,
	// so walk new-to-old until prev, our own earlier write, or the newest
	// non-aborted foreign version (the conflict) is found.
	link := prev
	for rid, ok := h.vids.Get(v); ok && rid.Valid() && rid != prev; {
		curV, live, err := h.readAt(rid, false)
		if err != nil {
			return UpdateResult{}, err
		}
		if !live {
			return UpdateResult{}, errRecordGone
		}
		if curV.TCreate == tx.ID {
			// Our own earlier write in this transaction: chain onto it.
			link = rid
			break
		}
		if h.mgr.StatusOf(curV.TCreate) != txn.Aborted {
			return UpdateResult{}, ErrWriteConflict
		}
		rid = curV.Next
	}
	rec := Version{Tombstone: tombstone, TCreate: tx.ID, Next: link, VID: v, Data: data}
	rid, err := h.append(h.enc.encode(&rec))
	if err != nil {
		return UpdateResult{}, err
	}
	h.vids.Set(v, rid)
	return UpdateResult{NewRID: rid, NeedsIndexUpdate: true}, nil
}

// readAt decodes the version at rid (see pinVersion). Its Data is a copy
// when withData is set and nil otherwise: a chain hop needs only the header.
func (h *SiasHeap) readAt(rid storage.RecordID, withData bool) (Version, bool, error) {
	fr, v, ok, err := pinVersion(h.pool, h.file, rid)
	if !ok {
		return Version{}, false, err
	}
	if withData {
		v.Data = append([]byte(nil), v.Data...)
	} else {
		v.Data = nil
	}
	h.pool.Unpin(fr, false)
	return v, true, nil
}

// Visible implements Heap: it reads the candidate to learn the tuple's
// VID, resolves the chain entry-point through the indirection table, and
// walks new-to-old until the first version whose creator tx sees — each
// hop a page fetch. This is the SIAS base-table visibility check whose
// cost MV-PBT's index-only check eliminates.
func (h *SiasHeap) Visible(tx *txn.Tx, candidate storage.RecordID) (VisibleVersion, bool, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	v, ok, err := h.readAt(candidate, false)
	if err != nil || !ok {
		return VisibleVersion{}, false, err
	}
	return h.visibleByVIDLocked(tx, v.VID)
}

// ReadVisible is Visible with nil for no visible version: the allocating
// form, for callers off the hot paths.
func (h *SiasHeap) ReadVisible(tx *txn.Tx, candidate storage.RecordID) (*VisibleVersion, error) {
	v, ok, err := h.Visible(tx, candidate)
	if !ok {
		return nil, err
	}
	return &v, err
}

// VisibleByVID performs the visibility walk from the chain entry-point of
// the given VID (logical-reference indexes start here directly).
func (h *SiasHeap) VisibleByVID(tx *txn.Tx, v uint64) (VisibleVersion, bool, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.visibleByVIDLocked(tx, v)
}

func (h *SiasHeap) visibleByVIDLocked(tx *txn.Tx, v uint64) (VisibleVersion, bool, error) {
	rid, ok := h.vids.Get(v)
	if !ok {
		return VisibleVersion{}, false, nil
	}
	for rid.Valid() {
		fr, ver, ok, err := pinVersion(h.pool, h.file, rid)
		if !ok {
			return VisibleVersion{}, false, err
		}
		if tx.Sees(ver.TCreate) {
			var out VisibleVersion
			if !ver.Tombstone {
				out = VisibleVersion{RID: rid, VID: ver.VID, Data: append([]byte(nil), ver.Data...)}
			}
			h.pool.Unpin(fr, false)
			return out, !ver.Tombstone, nil
		}
		h.pool.Unpin(fr, false)
		rid = ver.Next
	}
	return VisibleVersion{}, false, nil
}

// ReadVersion implements Heap.
func (h *SiasHeap) ReadVersion(rid storage.RecordID) (Version, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	v, ok, err := h.readAt(rid, true)
	if err != nil {
		return Version{}, err
	}
	if !ok {
		return Version{}, errRecordGone
	}
	return v, nil
}

// ScanVersions implements Heap: it streams every live tuple-version in the
// heap. Under SIAS each non-tombstone version was a chain entry-point once
// and may still be the version some snapshot's index entry leads to, so a
// rebuilt version-oblivious index gets one candidate entry per version —
// readers deduplicate and visibility-check candidates anyway.
func (h *SiasHeap) ScanVersions(fn func(rid storage.RecordID, v Version) bool) error {
	h.mu.RLock()
	defer h.mu.RUnlock()
	nPages := h.file.NumPages()
	for pageNo := uint64(0); pageNo < nPages; pageNo++ {
		fr, err := h.pool.Get(h.file, pageNo)
		if err != nil {
			if errors.Is(err, storage.ErrFreedPage) {
				// A vacuumed extent: nothing lives there, skip past it.
				pageNo = (pageNo/sfile.ExtentPages+1)*sfile.ExtentPages - 1
				continue
			}
			return err
		}
		p := page.Wrap(fr.Data())
		pid := h.file.PageID(pageNo)
		cont := true
		for s := 0; s < p.NumSlots() && cont; s++ {
			rec := p.Get(s)
			if rec == nil {
				continue
			}
			v, err := decodeVersion(rec)
			if err != nil {
				h.pool.Unpin(fr, false)
				return err
			}
			if v.Tombstone {
				continue
			}
			v.Data = append([]byte(nil), v.Data...)
			cont = fn(storage.RecordID{Page: pid, Slot: uint16(s)}, v)
		}
		h.pool.Unpin(fr, false)
		if !cont {
			return nil
		}
	}
	return nil
}

// Vacuum implements Heap: for every chain it finds the newest version that
// is visible to every snapshot below the horizon and unlinks everything
// older, deleting those records. SIAS never inserts into non-tail pages,
// so freed slots in old pages are never reused and stale index references
// to them resolve to "record gone".
func (h *SiasHeap) Vacuum(horizon txn.TxID) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	removed := 0
	for _, e := range h.vids.Entries() {
		rid := e.RID
		// Find the newest all-visible version: TCreate < horizon and
		// committed. Everything strictly older than it is garbage.
		var anchor storage.RecordID
		for rid.Valid() {
			ver, ok, err := h.readAt(rid, false)
			if err != nil {
				return removed, err
			}
			if !ok {
				break
			}
			if ver.TCreate < horizon && h.mgr.StatusOf(ver.TCreate) == txn.Committed {
				anchor = rid
				rid = ver.Next
				break
			}
			rid = ver.Next
		}
		if !anchor.Valid() || !rid.Valid() {
			continue
		}
		// Unlink: clear the anchor's predecessor pointer, then delete the
		// tail of the chain.
		if err := h.clearNext(anchor); err != nil {
			return removed, err
		}
		for rid.Valid() {
			ver, ok, err := h.readAt(rid, false)
			if err != nil {
				return removed, err
			}
			if !ok {
				break
			}
			if err := h.deleteRecord(rid); err != nil {
				return removed, err
			}
			removed++
			rid = ver.Next
		}
	}
	h.freeDeadExtents()
	return removed, nil
}

// freeDeadExtents returns fully-dead extents to the device. SIAS appends
// only to the tail page, so once vacuum has deleted every record in an
// extent the extent can never gain a live record again — its device space
// is pure garbage. The extent holding the tail page is exempt, as is any
// extent with even one live slot (including tombstones, which must remain
// readable). Freed pages surface as storage.ErrFreedPage, which pinVersion maps
// to "record gone" — the resolution any stale reference into the extent
// would have gotten anyway. Returns the number of extents freed.
func (h *SiasHeap) freeDeadExtents() int {
	nPages := h.file.NumPages()
	if nPages == 0 {
		return 0
	}
	freed := 0
	nExt := (nPages + sfile.ExtentPages - 1) / sfile.ExtentPages
	for ext := uint64(0); ext < nExt; ext++ {
		if h.hasTail && ext == h.tail/sfile.ExtentPages {
			continue
		}
		start := ext * sfile.ExtentPages
		end := start + sfile.ExtentPages
		if end > nPages {
			end = nPages
		}
		dead := true
		for pageNo := start; pageNo < end; pageNo++ {
			fr, err := h.pool.Get(h.file, pageNo)
			if err != nil {
				// Already freed, or unreadable — either way, leave it be.
				dead = false
				break
			}
			live := page.Wrap(fr.Data()).LiveCount()
			h.pool.Unpin(fr, false)
			if live > 0 {
				dead = false
				break
			}
		}
		if !dead {
			continue
		}
		h.pool.DropFilePages(h.file, start, int(end-start))
		h.file.FreeRun(start, int(end-start))
		freed++
	}
	return freed
}

func (h *SiasHeap) clearNext(rid storage.RecordID) error {
	fr, err := h.pool.Get(h.file, rid.Page.PageNo())
	if err != nil {
		return err
	}
	p := page.Wrap(fr.Data())
	rec := p.Get(int(rid.Slot))
	if rec == nil {
		h.pool.Unpin(fr, false)
		return nil
	}
	v, err := decodeVersion(rec)
	if err != nil {
		h.pool.Unpin(fr, false)
		return err
	}
	v.Next = storage.RecordID{}
	ok := p.Replace(int(rid.Slot), h.enc.encode(&v)) // encoded before Replace moves rec
	h.pool.Unpin(fr, ok)
	return nil
}

func (h *SiasHeap) deleteRecord(rid storage.RecordID) error {
	fr, err := h.pool.Get(h.file, rid.Page.PageNo())
	if err != nil {
		return err
	}
	p := page.Wrap(fr.Data())
	p.Delete(int(rid.Slot))
	h.pool.Unpin(fr, true)
	return nil
}
