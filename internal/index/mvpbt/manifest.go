package mvpbt

import (
	"fmt"

	"mvpbt/internal/index/part"
	"mvpbt/internal/page"
	"mvpbt/internal/storage"
	"mvpbt/internal/util"
)

// Index-level manifest: persisted partition metadata (§4.7 — the filters
// are "persisted as part of the partition metadata"). SaveManifest writes
// the metadata of every persisted partition into fresh pages of the index
// file; LoadManifest rebuilds the partition list of a freshly constructed
// Tree over the same file. PN is main-memory state and is NOT covered —
// evict it first (or accept losing it, as a crash would; the WAL covers
// logical durability).

const manifestMagic = 0x4D56504254 // "MVPBT"

// A manifest page is a slotted page holding one record — the next
// page.MaxRecordLen bytes of the framed manifest — under the page checksum.

// SaveManifest persists the current partition metadata and returns the
// page run holding it. On error the run is given back.
func (t *Tree) SaveManifest() (startPage uint64, numPages int, err error) {
	// bgMu: a partition build grows its run in the same file.
	t.bgMu.Lock()
	defer t.bgMu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.view.Load()
	body := util.PutUvarint(nil, manifestMagic)
	body = util.PutUvarint(body, uint64(t.nextNo))
	body = util.PutUvarint(body, uint64(len(v.parts)))
	for _, s := range v.parts {
		body = part.EncodeMeta(body, s)
	}
	framed := util.EncodeUint64(nil, uint64(len(body)))
	framed = append(framed, body...)
	n := (len(framed) + page.MaxRecordLen - 1) / page.MaxRecordLen
	start, err := t.file.AllocRun(n)
	if err != nil {
		return 0, 0, fmt.Errorf("mvpbt: manifest alloc: %w", err)
	}
	buf := make([]byte, storage.PageSize)
	for i := 0; i < n; i++ {
		clear(buf)
		p := page.Wrap(buf)
		p.Init()
		p.Insert(framed[i*page.MaxRecordLen : min((i+1)*page.MaxRecordLen, len(framed))])
		page.StampChecksum(buf)
		if err := t.file.WritePage(start+uint64(i), buf); err != nil {
			t.file.FreeRun(start, n)
			return 0, 0, fmt.Errorf("mvpbt: manifest write: %w", err)
		}
	}
	return start, n, nil
}

// LoadManifest reads a manifest written by SaveManifest and installs its
// partitions. The tree must be freshly constructed over the same file.
func (t *Tree) LoadManifest(startPage uint64, numPages int) (err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Corrupt metadata surfaces as an error, not a crash.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("mvpbt: corrupt manifest: %v", r)
		}
	}()
	v := t.view.Load()
	if len(v.parts) != 0 || v.pn.Len() != 0 {
		return fmt.Errorf("mvpbt: LoadManifest on a non-empty tree")
	}
	var framed []byte
	buf := make([]byte, storage.PageSize)
	for i := 0; i < numPages; i++ {
		if err := t.file.ReadPage(startPage+uint64(i), buf); err != nil {
			return fmt.Errorf("mvpbt: manifest read: %w", err)
		}
		// An all-zero page passes VerifyChecksum (a fresh page); here it is
		// as wrong as a rotted one, and holds no record.
		p := page.Wrap(buf)
		if !page.VerifyChecksum(buf) || p.NumSlots() != 1 {
			return fmt.Errorf("mvpbt: manifest page %d: %w", startPage+uint64(i), storage.ErrCorruptPage)
		}
		framed = append(framed, p.Get(0)...)
	}
	if len(framed) < 8 {
		return fmt.Errorf("mvpbt: manifest too short")
	}
	bl := util.DecodeUint64(framed)
	if int(bl)+8 > len(framed) {
		return fmt.Errorf("mvpbt: manifest truncated")
	}
	body := framed[8 : 8+int(bl)]
	i := 0
	read := func() uint64 {
		v, n := util.Uvarint(body[i:])
		i += n
		return v
	}
	if read() != manifestMagic {
		return fmt.Errorf("mvpbt: bad manifest magic")
	}
	t.nextNo = int(read())
	count := int(read())
	if count < 0 || count > len(body)-i { // a partition's metadata is many bytes
		return fmt.Errorf("mvpbt: manifest of %d bytes claims %d partitions", len(body), count)
	}
	parts := make([]*part.Segment, 0, count)
	for j := 0; j < count; j++ {
		seg, n, err := part.DecodeMeta(t.pool, t.file, body[i:])
		if err != nil {
			return err
		}
		i += n
		parts = append(parts, seg)
	}
	t.view.Store(&treeView{pn: v.pn, parts: parts})
	return nil
}
