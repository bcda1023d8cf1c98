// Package page implements the slotted 8 KiB database page used by the
// heaps and by persisted index nodes. A page holds variable-length records
// addressed by stable slot numbers (slot numbers survive compaction, so
// RecordIDs pointing into a page stay valid until the record is deleted).
//
// Layout:
//
//	[0:2)   number of slots
//	[2:4)   freeHi — offset where the record area begins (grows downward)
//	[4:6)   reserved (a flag word no user of the page sets; zero)
//	[6:8)   garbage bytes reclaimable by compaction
//	[8:12)  CRC32C checksum of the rest of the page, stamped at write-back
//	        and verified on every buffer-pool fetch (zero on never-stamped
//	        pages; an all-zero page is accepted as a valid fresh page)
//	[12:48) client header — 36 bytes owned by the page's user (B-tree node
//	        headers, heap page metadata, ...)
//	[48:)   slot directory, 4 bytes per slot (offset, length); record data
//	        grows from the end of the page towards the directory.
package page

import (
	"encoding/binary"
	"hash/crc32"

	"mvpbt/internal/storage"
)

const (
	checksumOff = 8
	checksumLen = 4
	headerEnd   = checksumOff + checksumLen
	clientLen   = 36
	slotBase    = headerEnd + clientLen
	slotSize    = 4
)

// MaxRecordLen is the largest record a page can hold.
const MaxRecordLen = storage.PageSize - slotBase - slotSize

// castagnoli is the CRC32C polynomial table (the checksum used by iSCSI,
// ext4 and btrfs; hardware-accelerated by the stdlib on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum computes the CRC32C of a page image, excluding the checksum
// field itself.
func Checksum(b []byte) uint32 {
	c := crc32.Update(0, castagnoli, b[:checksumOff])
	return crc32.Update(c, castagnoli, b[headerEnd:])
}

// StampChecksum stores the current content checksum into the page header.
// Call it immediately before the page image reaches the device.
func StampChecksum(b []byte) {
	binary.LittleEndian.PutUint32(b[checksumOff:headerEnd], Checksum(b))
}

// VerifyChecksum reports whether a page image read from the device matches
// its stored checksum. An all-zero page is accepted: never-written device
// regions read as zeros (trimmed-SSD convention) and a fresh page has no
// checksum yet.
func VerifyChecksum(b []byte) bool {
	stored := binary.LittleEndian.Uint32(b[checksumOff:headerEnd])
	if Checksum(b) == stored {
		return true
	}
	if stored != 0 {
		return false
	}
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// Page is a view over an 8 KiB buffer-pool frame. The zero Page is invalid;
// construct with Wrap.
type Page struct {
	b []byte
}

// Wrap interprets b (which must be storage.PageSize long) as a page. It
// does not initialize the page; call Init on fresh frames.
func Wrap(b []byte) Page {
	if len(b) != storage.PageSize {
		panic("page: Wrap with wrong buffer size")
	}
	return Page{b: b}
}

// Init formats the page as empty.
func (p Page) Init() {
	for i := range p.b[:slotBase] {
		p.b[i] = 0
	}
	p.setNumSlots(0)
	p.setFreeHi(storage.PageSize)
	p.setGarbage(0)
}

// Bytes returns the underlying buffer.
func (p Page) Bytes() []byte { return p.b }

// Client returns the 36-byte client header area.
func (p Page) Client() []byte { return p.b[headerEnd:slotBase] }

func (p Page) numSlots() int     { return int(binary.LittleEndian.Uint16(p.b[0:2])) }
func (p Page) setNumSlots(n int) { binary.LittleEndian.PutUint16(p.b[0:2], uint16(n)) }
func (p Page) freeHi() int       { return int(binary.LittleEndian.Uint16(p.b[2:4])) }
func (p Page) setFreeHi(v int)   { binary.LittleEndian.PutUint16(p.b[2:4], uint16(v)) }
func (p Page) garbage() int      { return int(binary.LittleEndian.Uint16(p.b[6:8])) }
func (p Page) setGarbage(v int)  { binary.LittleEndian.PutUint16(p.b[6:8], uint16(v)) }

// NumSlots returns the size of the slot directory, including dead slots.
func (p Page) NumSlots() int { return p.numSlots() }

func (p Page) slot(i int) (off, length int) {
	base := slotBase + i*slotSize
	return int(binary.LittleEndian.Uint16(p.b[base : base+2])),
		int(binary.LittleEndian.Uint16(p.b[base+2 : base+4]))
}

func (p Page) setSlot(i, off, length int) {
	base := slotBase + i*slotSize
	binary.LittleEndian.PutUint16(p.b[base:base+2], uint16(off))
	binary.LittleEndian.PutUint16(p.b[base+2:base+4], uint16(length))
}

func (p Page) slotEnd() int { return slotBase + p.numSlots()*slotSize }

// Get returns the record in slot i, or nil if the slot is dead — or, on a
// damaged page, if the slot or its record would lie outside the page: a slot
// count and a directory entry are device bytes, and readers of immutable
// pages walk them without a decoded copy to fall back on. The returned slice
// aliases the page buffer; callers must not hold it across page
// modifications.
func (p Page) Get(i int) []byte {
	if i < 0 || i >= p.numSlots() || slotBase+(i+1)*slotSize > len(p.b) {
		return nil
	}
	off, l := p.slot(i)
	if l == 0 || off+l > len(p.b) {
		return nil
	}
	return p.b[off : off+l]
}

// Live reports whether slot i holds a record. A slot past the page, which
// only a damaged slot count names, holds none (see Get).
func (p Page) Live(i int) bool {
	if i < 0 || i >= p.numSlots() || slotBase+(i+1)*slotSize > len(p.b) {
		return false
	}
	_, l := p.slot(i)
	return l != 0
}

// FreeSpace returns the bytes available for record data after compaction,
// not counting slot-directory overhead for new slots.
func (p Page) FreeSpace() int {
	return p.freeHi() - p.slotEnd() + p.garbage()
}

// deadSlot returns the index of a reusable dead slot, or -1.
func (p Page) deadSlot() int {
	for i, n := 0, p.numSlots(); i < n; i++ {
		if _, l := p.slot(i); l == 0 {
			return i
		}
	}
	return -1
}

// Insert stores rec in the page, returning its slot number. ok is false if
// the record does not fit (the page is left unchanged).
func (p Page) Insert(rec []byte) (slot int, ok bool) {
	if len(rec) == 0 || len(rec) > MaxRecordLen {
		return 0, false
	}
	slot = p.deadSlot()
	need := len(rec)
	newSlot := slot < 0
	if newSlot {
		need += slotSize
	}
	contig := p.freeHi() - p.slotEnd()
	if contig < need {
		if p.FreeSpace() < need {
			return 0, false
		}
		p.Compact()
		contig = p.freeHi() - p.slotEnd()
		if contig < need {
			return 0, false
		}
	}
	if newSlot {
		slot = p.numSlots()
		p.setNumSlots(slot + 1)
	}
	off := p.freeHi() - len(rec)
	copy(p.b[off:], rec)
	p.setFreeHi(off)
	p.setSlot(slot, off, len(rec))
	return slot, true
}

// Delete removes the record in slot i. The slot becomes dead and may be
// reused by later inserts.
func (p Page) Delete(i int) {
	if !p.Live(i) {
		return
	}
	_, l := p.slot(i)
	p.setSlot(i, 0, 0)
	p.setGarbage(p.garbage() + l)
}

// Replace overwrites the record in slot i with rec, relocating it within
// the page if it grew. ok is false if the new record does not fit (the old
// record is preserved).
func (p Page) Replace(i int, rec []byte) bool {
	if !p.Live(i) || len(rec) == 0 || len(rec) > MaxRecordLen {
		return false
	}
	off, l := p.slot(i)
	if len(rec) <= l {
		copy(p.b[off:], rec)
		p.setSlot(i, off, len(rec))
		p.setGarbage(p.garbage() + l - len(rec))
		return true
	}
	// Must relocate: free space check counts the old copy as garbage.
	if p.FreeSpace()+l < len(rec) {
		return false
	}
	p.setSlot(i, 0, 0)
	p.setGarbage(p.garbage() + l)
	contig := p.freeHi() - p.slotEnd()
	if contig < len(rec) {
		p.Compact()
	}
	noff := p.freeHi() - len(rec)
	copy(p.b[noff:], rec)
	p.setFreeHi(noff)
	p.setSlot(i, noff, len(rec))
	return true
}

// InsertAt inserts rec as slot i, shifting slots [i, n) up by one. Unlike
// Insert, slot numbers are NOT stable across InsertAt/DeleteAt — this is
// for logically ordered nodes (B-tree pages), where slot order is key
// order and nothing points at slots from outside.
func (p Page) InsertAt(i int, rec []byte) bool {
	n := p.numSlots()
	if i < 0 || i > n {
		return false
	}
	dst := p.Append(len(rec))
	if dst == nil {
		return false
	}
	copy(dst, rec)
	// Move the new slot from the end of the directory to position i.
	off, l := p.slot(n)
	base := slotBase + i*slotSize
	end := slotBase + n*slotSize
	copy(p.b[base+slotSize:end+slotSize], p.b[base:end])
	p.setSlot(i, off, l)
	return true
}

// Append reserves an n-byte record as the page's new last slot and returns
// it for the caller to fill in: InsertAt(NumSlots(), rec) without the
// staging copy, for bulk builders that encode each record in place. It
// returns nil if the record does not fit (the page is left unchanged).
func (p Page) Append(n int) []byte {
	slots := p.numSlots()
	if n <= 0 || n > MaxRecordLen {
		return nil
	}
	need := n + slotSize
	if p.freeHi()-p.slotEnd() < need {
		if p.FreeSpace() < need {
			return nil
		}
		p.Compact()
		if p.freeHi()-p.slotEnd() < need {
			return nil
		}
	}
	p.setNumSlots(slots + 1)
	off := p.freeHi() - n
	p.setFreeHi(off)
	p.setSlot(slots, off, n)
	return p.b[off : off+n : off+n]
}

// DeleteAt removes slot i entirely, shifting slots [i+1, n) down by one.
// See InsertAt for the stability caveat.
func (p Page) DeleteAt(i int) {
	n := p.numSlots()
	if i < 0 || i >= n {
		return
	}
	_, l := p.slot(i)
	if l != 0 {
		p.setGarbage(p.garbage() + l)
	}
	base := slotBase + i*slotSize
	end := slotBase + n*slotSize
	copy(p.b[base:end-slotSize], p.b[base+slotSize:end])
	p.setNumSlots(n - 1)
}

// Compact rewrites the record area to reclaim garbage from deleted and
// shrunk records. Slot numbers are unchanged.
func (p Page) Compact() {
	var tmp [storage.PageSize]byte
	hi := storage.PageSize
	n := p.numSlots()
	for i := 0; i < n; i++ {
		off, l := p.slot(i)
		if l == 0 {
			continue
		}
		hi -= l
		copy(tmp[hi:], p.b[off:off+l])
		p.setSlot(i, hi, l)
	}
	copy(p.b[hi:], tmp[hi:])
	p.setFreeHi(hi)
	p.setGarbage(0)
}

// LiveCount returns the number of live records (see Live).
func (p Page) LiveCount() int {
	c := 0
	for i, n := 0, p.numSlots(); i < n; i++ {
		if p.Live(i) {
			c++
		}
	}
	return c
}
