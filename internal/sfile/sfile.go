// Package sfile provides extent-based space allocation on top of the
// simulated flash device: storage objects (base-table segments, index
// files) allocate pages in extents of contiguous device blocks, which gives
// append workloads the sequential, extent-striped write pattern visible in
// the paper's Figure 12c. Freed extents are recycled.
package sfile

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
)

// ExtentPages is the number of pages per allocation extent (256 KiB
// extents, matching common database extent sizes).
const ExtentPages = 32

// ExtentBytes is the extent size in bytes.
const ExtentBytes = ExtentPages * storage.PageSize

// Class labels a file's role for buffer-pool statistics (the paper's
// Figure 12d separates index-node from base-table-node requests).
type Class uint8

// File classes.
const (
	ClassTable Class = iota
	ClassIndex
	ClassMeta
	numClasses
)

// NumClasses is the number of file classes.
const NumClasses = int(numClasses)

func (c Class) String() string {
	switch c {
	case ClassTable:
		return "table"
	case ClassIndex:
		return "index"
	default:
		return "meta"
	}
}

// Manager owns the device space: it hands out extents to files and
// recycles freed ones. Space is accounted two ways: LIVE bytes (extents
// currently handed out, decremented on free) and the HIGH-WATER mark (the
// allocation frontier, which never shrinks). An optional capacity budget
// bounds live bytes: an allocation that would exceed it fails with an
// error wrapping storage.ErrNoSpace instead of growing forever.
type Manager struct {
	mu       sync.Mutex
	dev      *ssd.Device
	frontier int64 // next unallocated device byte offset (high-water mark)
	free     []int64
	files    map[storage.FileID]*File
	nextFile storage.FileID

	capacity atomic.Int64 // live-byte budget; 0 = unbounded
	live     atomic.Int64 // bytes of extents currently handed out

	// notify, when installed, fires after every allocation or free with the
	// current live-byte count — the engine's space governor hangs its
	// watermark state machine off it. It is invoked OUTSIDE the manager and
	// file locks, so it may call back into the manager (LiveBytes, etc.)
	// but sees a count that may already be stale; governors must tolerate
	// that.
	notify atomic.Pointer[func(live int64)]

	// classMu guards extClass, the extent→class map backing the device's
	// fault-scoping classifier. It is a separate mutex because the device
	// calls the classifier with its own lock held, and the manager calls
	// into the device (Discard) while holding m.mu — routing the classifier
	// through m.mu would invert that order.
	classMu  sync.Mutex
	extClass map[int64]Class
}

// NewManager returns a manager allocating space on dev.
func NewManager(dev *ssd.Device) *Manager {
	m := &Manager{dev: dev, files: make(map[storage.FileID]*File), nextFile: 1, extClass: make(map[int64]Class)}
	dev.SetClassifier(m.classOf)
	return m
}

// classOf maps a device byte offset to the sfile class of the extent it
// falls in, for fault-rule scoping. Unattributed space is ssd.AnyClass.
func (m *Manager) classOf(off int64) int {
	m.classMu.Lock()
	defer m.classMu.Unlock()
	if c, ok := m.extClass[off/ExtentBytes]; ok {
		return int(c)
	}
	return ssd.AnyClass
}

// Device returns the underlying device.
func (m *Manager) Device() *ssd.Device { return m.dev }

// SetCapacity installs a live-byte budget (0 removes it). Allocations that
// would push live bytes past the budget fail with storage.ErrNoSpace;
// already-allocated space is unaffected, so shrinking below current usage
// only blocks future growth.
func (m *Manager) SetCapacity(bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	m.capacity.Store(bytes)
}

// CapacityBytes returns the configured live-byte budget (0 = unbounded).
func (m *Manager) CapacityBytes() int64 { return m.capacity.Load() }

// LiveBytes returns the bytes of extents currently handed out. Unlike the
// high-water mark it shrinks when runs are freed.
func (m *Manager) LiveBytes() int64 { return m.live.Load() }

// HighWaterBytes returns the allocation frontier — the most device address
// space ever handed out at once. It never shrinks.
func (m *Manager) HighWaterBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.frontier
}

// SetSpaceNotifier installs fn to run (outside the manager's locks) after
// every allocation and free, with the current live-byte count. Pass nil to
// remove it.
func (m *Manager) SetSpaceNotifier(fn func(live int64)) {
	if fn == nil {
		m.notify.Store(nil)
		return
	}
	m.notify.Store(&fn)
}

// noteSpace fires the space notifier. Callers must hold NO manager or file
// locks.
func (m *Manager) noteSpace() {
	if fn := m.notify.Load(); fn != nil {
		(*fn)(m.live.Load())
	}
}

// Create makes a new empty file.
func (m *Manager) Create(name string, class Class) *File {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := &File{m: m, id: m.nextFile, name: name, class: class}
	m.files[f.id] = f
	m.nextFile++
	return f
}

// Lookup returns the file with the given id, or nil.
func (m *Manager) Lookup(id storage.FileID) *File {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.files[id]
}

// allocExtent hands out one extent, reusing freed extents first. The
// allocation is charged against the live-byte budget — reusing a freed
// extent counts the same as frontier space, since freed extents were
// discarded and their live bytes released — and checked against the
// device's armed FaultNoSpace rules. On failure nothing is committed: the
// free list, frontier, and live count are untouched.
func (m *Manager) allocExtent(class Class) (int64, error) {
	off, fromFree := m.frontier, len(m.free) > 0
	if fromFree {
		off = m.free[len(m.free)-1]
	}
	if cap := m.capacity.Load(); cap > 0 && m.live.Load()+ExtentBytes > cap {
		return 0, fmt.Errorf("sfile: extent at off=%d: live=%d + extent=%d exceeds capacity=%d: %w",
			off, m.live.Load(), int64(ExtentBytes), cap, storage.ErrNoSpace)
	}
	if err := m.dev.CheckAlloc(off, ExtentBytes); err != nil {
		return 0, err
	}
	if fromFree {
		m.free = m.free[:len(m.free)-1]
	} else {
		m.frontier += ExtentBytes
	}
	m.live.Add(ExtentBytes)
	m.classMu.Lock()
	m.extClass[off/ExtentBytes] = class
	m.classMu.Unlock()
	return off, nil
}

func (m *Manager) freeExtent(off int64) {
	m.classMu.Lock()
	delete(m.extClass, off/ExtentBytes)
	m.classMu.Unlock()
	m.dev.Discard(off, ExtentBytes)
	m.free = append(m.free, off)
	m.live.Add(-ExtentBytes)
}

// FreeExtents returns the number of recyclable extents.
func (m *Manager) FreeExtents() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.free)
}

// File is a storage object: a growable array of pages mapped onto device
// extents. Page numbers are handed out in order and never twice; an extent
// is returned to the manager when the last page handed out in it is freed,
// so runs of any length pack the file's extents (a segment usage table, as
// in a log-structured file system). Files are safe for concurrent use.
type File struct {
	m     *Manager
	id    storage.FileID
	name  string
	class Class

	mu      sync.Mutex
	extents []int64  // device byte offset per extent; -1 = freed
	live    []uint32 // per extent, one bit per page handed out and not freed
	nPages  uint64
}

// ID returns the file id.
func (f *File) ID() storage.FileID { return f.id }

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Class returns the file's buffer-statistics class.
func (f *File) Class() Class { return f.class }

// NumPages returns the number of page numbers handed out (including freed
// ones).
func (f *File) NumPages() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nPages
}

// AllocPage allocates one page and returns its page number. It fails with
// an error wrapping storage.ErrNoSpace when the extent it needs exceeds the
// manager's capacity budget (or an injected ENOSPC fault fires); on failure
// the file is unchanged.
func (f *File) AllocPage() (uint64, error) {
	f.mu.Lock()
	no, err := f.allocPageLocked()
	f.mu.Unlock()
	if err == nil {
		f.m.noteSpace()
	}
	return no, err
}

// allocPageLocked hands out the page after the last one, in the file's open
// extent, or in a new one if that is full — or was freed under the file, in
// which case its remaining page numbers stay dead.
func (f *File) allocPageLocked() (uint64, error) {
	no := f.nPages
	ext := int(no / ExtentPages)
	if ext < len(f.extents) && f.extents[ext] < 0 {
		ext++
		no = uint64(ext) * ExtentPages
	}
	if ext >= len(f.extents) {
		f.m.mu.Lock()
		off, err := f.m.allocExtent(f.class)
		f.m.mu.Unlock()
		if err != nil {
			return 0, fmt.Errorf("sfile: file %q: %w", f.name, err)
		}
		f.extents, f.live = append(f.extents, off), append(f.live, 0)
	}
	f.live[ext] |= 1 << (no % ExtentPages)
	f.nPages = no + 1
	return no, nil
}

// AllocRun allocates n consecutive pages, the file's next, and returns the
// first page number. Pages are handed out as by AllocPage: the run fills the
// open extent before it takes new ones. A capacity failure mid-run rolls
// the whole run back (its pages are freed again, extents it took with them,
// and the file size is restored) so a failed AllocRun is a no-op.
func (f *File) AllocRun(n int) (uint64, error) {
	if n <= 0 {
		panic("sfile: AllocRun with n <= 0")
	}
	f.mu.Lock()
	savedPages, savedExt := f.nPages, len(f.extents)
	var start uint64
	for i := 0; i < n; i++ {
		no, err := f.allocPageLocked()
		if err != nil {
			f.freeLocked(start, i)
			f.extents, f.live, f.nPages = f.extents[:savedExt], f.live[:savedExt], savedPages
			f.mu.Unlock()
			return 0, fmt.Errorf("sfile: file %q: run of %d pages: %w", f.name, n, err)
		}
		if i == 0 {
			start = no
		}
	}
	f.mu.Unlock()
	f.m.noteSpace()
	return start, nil
}

// FreeRun frees pages [start, start+n), returning to the manager each
// extent whose last live page is among them. The page numbers must never be
// referenced again; pages already freed, or never handed out, are skipped.
func (f *File) FreeRun(start uint64, n int) {
	f.mu.Lock()
	f.freeLocked(start, n)
	f.mu.Unlock()
	f.m.noteSpace()
}

// freeLocked is FreeRun with f.mu held.
func (f *File) freeLocked(start uint64, n int) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	for p, end := start, min(start+uint64(n), f.nPages); p < end; {
		ext, k := p/ExtentPages, min(end-p, ExtentPages-p%ExtentPages)
		if w := &f.live[ext]; *w != 0 {
			if *w &^= uint32((uint64(1)<<k - 1) << (p % ExtentPages)); *w == 0 {
				f.m.freeExtent(f.extents[ext])
				f.extents[ext] = -1
			}
		}
		p += k
	}
}

// offsetOf returns the device offset of pageNo, checking that it and the
// n-1 pages after it, in the same extent, are live.
func (f *File) offsetOf(pageNo uint64, n int) (int64, error) {
	ext, mask := int(pageNo/ExtentPages), uint32((uint64(1)<<n-1)<<(pageNo%ExtentPages))
	f.mu.Lock()
	defer f.mu.Unlock()
	if ext >= len(f.extents) || f.live[ext]&mask != mask {
		return 0, fmt.Errorf("sfile: page %d of file %q: %w", pageNo, f.name, storage.ErrFreedPage)
	}
	return f.extents[ext] + int64(pageNo%ExtentPages)*storage.PageSize, nil
}

// ReadPage reads page pageNo into buf (which must be storage.PageSize).
// Accessing a freed or never-allocated run returns storage.ErrFreedPage;
// device-level failures wrap storage.ErrIOFault.
func (f *File) ReadPage(pageNo uint64, buf []byte) error {
	return f.ReadPages(pageNo, [][]byte{buf})
}

// ReadPages reads the len(pages) pages starting at pageNo, each into its own
// PageSize buffer, with ONE device read — the sequential-scan counterpart of
// ReadPage (a 256 KiB read costs about half of thirty-two 8 KiB ones on the
// Fig. 8 profile). Only an extent is contiguous on the device, so a run
// crossing an extent boundary is refused. Errors mirror ReadPage.
func (f *File) ReadPages(pageNo uint64, pages [][]byte) error {
	if n := len(pages); n == 0 || pageNo/ExtentPages != (pageNo+uint64(n)-1)/ExtentPages {
		return fmt.Errorf("sfile: file %q: %d pages at %d are not a page run inside one extent", f.name, n, pageNo)
	}
	off, err := f.offsetOf(pageNo, len(pages))
	if err != nil {
		return err
	}
	return f.m.dev.ReadvAt(pages, off)
}

// WritePage writes buf, one page, to page pageNo for ssd.CauseOther. Errors
// mirror ReadPage.
func (f *File) WritePage(pageNo uint64, buf []byte) error {
	return f.WriteSectors(pageNo, 0, buf, ssd.CauseOther)
}

// WriteSectors writes buf into page pageNo starting at in-page byte offset
// off, booked to cause c. The range must be a non-empty run of whole device
// sectors that stays inside the page (a whole page is one): the sector is
// the unit a torn write preserves, so this is the smallest write that cannot
// damage neighbouring bytes. Errors mirror ReadPage.
func (f *File) WriteSectors(pageNo uint64, off int, buf []byte, c ssd.Cause) error {
	if off < 0 || len(buf) == 0 || off%ssd.SectorSize != 0 || len(buf)%ssd.SectorSize != 0 || off+len(buf) > storage.PageSize {
		return fmt.Errorf("sfile: page %d of file %q: range [%d,%d) is not a sector run inside the page", pageNo, f.name, off, off+len(buf))
	}
	base, err := f.offsetOf(pageNo, 1)
	if err != nil {
		return err
	}
	return f.m.dev.WriteFor(c, buf, base+int64(off))
}

// PageID returns the global page id of pageNo in this file.
func (f *File) PageID(pageNo uint64) storage.PageID {
	return storage.NewPageID(f.id, pageNo)
}
