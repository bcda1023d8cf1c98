// Package btree implements the mutable, paged B⁺-Tree baseline: slotted
// 8 KiB nodes fetched through the shared buffer pool, root-to-leaf
// traversal, node splits, and a leaf sibling chain for range scans. It is
// version-oblivious: entries are (key, body) pairs treated as independent
// tuples, maintained in place — which is exactly the random-write,
// candidate-returning behaviour the paper's B-Tree baseline exhibits.
//
// Non-unique keys are supported by ordering entries on the composite
// (key, body); every entry is unique under that ordering.
package btree

import (
	"bytes"
	"fmt"
	"sync"

	"mvpbt/internal/buffer"
	"mvpbt/internal/index"
	"mvpbt/internal/page"
	"mvpbt/internal/sfile"
	"mvpbt/internal/storage"
	"mvpbt/internal/util"
)

// Client-header layout: [0] level, [1:9] right sibling page number + 1
// (0 = none).
const (
	hdrLevel   = 0
	hdrSibling = 1
)

// MaxEntrySize bounds key+body so that any two entries fit in a node,
// guaranteeing splits always succeed.
const MaxEntrySize = 2048

// Tree is a paged B⁺-Tree. Safe for concurrent use via a coarse lock.
type Tree struct {
	mu   sync.Mutex
	pool *buffer.Pool
	file *sfile.File
	root uint64
	h    int // height: 1 = root is a leaf
}

// New creates an empty tree stored in file.
func New(pool *buffer.Pool, file *sfile.File) (*Tree, error) {
	t := &Tree{pool: pool, file: file}
	fr, pageNo, err := pool.NewPage(file)
	if err != nil {
		return nil, err
	}
	p := page.Wrap(fr.Data())
	p.Init()
	setLevel(p, 0)
	setSibling(p, 0)
	pool.Unpin(fr, true)
	t.root = pageNo
	t.h = 1
	return t, nil
}

func setLevel(p page.Page, l int) { p.Client()[hdrLevel] = byte(l) }
func level(p page.Page) int       { return int(p.Client()[hdrLevel]) }
func setSibling(p page.Page, s uint64) {
	b := p.Client()[hdrSibling : hdrSibling+8]
	for i := 7; i >= 0; i-- {
		b[i] = byte(s)
		s >>= 8
	}
}
func sibling(p page.Page) uint64 {
	b := p.Client()[hdrSibling : hdrSibling+8]
	var s uint64
	for i := 0; i < 8; i++ {
		s = s<<8 | uint64(b[i])
	}
	return s
}

// Leaf records: [klen varint][key][body].
// Internal records: [klen varint][key][blen varint][body][child 8 bytes].

func encodeLeaf(key, body []byte) []byte {
	out := util.PutUvarint(nil, uint64(len(key)))
	out = append(out, key...)
	return append(out, body...)
}

// errShortRecord is a node record whose bytes end before its fields do: the
// page's checksum held, so the tree wrote it wrong.
var errShortRecord = fmt.Errorf("btree: short node record: %w", storage.ErrCorruptPage)

// takeKey splits a record into its length-prefixed key and the rest.
func takeKey(rec []byte) (key, rest []byte, err error) {
	kl, n := util.Uvarint(rec)
	if n <= 0 || kl > uint64(len(rec)-n) {
		return nil, nil, errShortRecord
	}
	return rec[n : n+int(kl)], rec[n+int(kl):], nil
}

func decodeLeaf(rec []byte) (key, body []byte, err error) { return takeKey(rec) }

func encodeInternal(key, body []byte, child uint64) []byte {
	out := util.PutUvarint(nil, uint64(len(key)))
	out = append(out, key...)
	out = util.PutUvarint(out, uint64(len(body)))
	out = append(out, body...)
	var b [8]byte
	for i := 7; i >= 0; i-- {
		b[i] = byte(child)
		child >>= 8
	}
	return append(out, b[:]...)
}

func decodeInternal(rec []byte) (key, body []byte, child uint64, err error) {
	key, rest, err := takeKey(rec)
	if err != nil {
		return nil, nil, 0, err
	}
	body, cb, err := takeKey(rest)
	if err != nil || len(cb) != 8 {
		return nil, nil, 0, errShortRecord
	}
	for i := 0; i < 8; i++ {
		child = child<<8 | uint64(cb[i])
	}
	return key, body, child, nil
}

// cmpEntry orders entries by (key, body).
func cmpEntry(k1, b1, k2, b2 []byte) int {
	if c := bytes.Compare(k1, k2); c != 0 {
		return c
	}
	return bytes.Compare(b1, b2)
}

// nodeKey decodes slot i per node level: its (key, body), and in an
// internal node its child.
func nodeKey(p page.Page, i int) (key, body []byte, child uint64, err error) {
	if level(p) == 0 {
		key, body, err = decodeLeaf(p.Get(i))
		return key, body, 0, err
	}
	return decodeInternal(p.Get(i))
}

// searchNode returns the first slot whose entry is >= (key, body) — with
// upper, the first whose entry is > it — and whether that slot holds
// exactly (key, body).
func searchNode(p page.Page, key, body []byte, upper bool) (pos int, found bool, err error) {
	lo, hi := 0, p.NumSlots()
	for lo < hi {
		mid := (lo + hi) / 2
		k, b, _, err := nodeKey(p, mid)
		if err != nil {
			return 0, false, err
		}
		if c := cmpEntry(k, b, key, body); c < 0 || upper && c == 0 {
			lo = mid + 1
		} else {
			hi, found = mid, c == 0
		}
	}
	return lo, found, nil
}

// insertSorted inserts rec, the record of (key, body), at its place in p,
// reporting false when p has no room for it.
func insertSorted(p page.Page, key, body, rec []byte) (bool, error) {
	pos, _, err := searchNode(p, key, body, false)
	if err != nil {
		return false, err
	}
	return p.InsertAt(pos, rec), nil
}

// childFor returns the slot index of the child to descend into for
// (key, body): the rightmost separator <= it, or -1 for child0. Internal
// nodes store child0 in the client header bytes [9:17].
const hdrChild0 = 9

func setChild0(p page.Page, c uint64) {
	b := p.Client()[hdrChild0 : hdrChild0+8]
	for i := 7; i >= 0; i-- {
		b[i] = byte(c)
		c >>= 8
	}
}

func child0(p page.Page) uint64 {
	b := p.Client()[hdrChild0 : hdrChild0+8]
	var c uint64
	for i := 0; i < 8; i++ {
		c = c<<8 | uint64(b[i])
	}
	return c
}

func childFor(p page.Page, key, body []byte) (slot int, child uint64, err error) {
	// Upper bound: first separator STRICTLY greater than (key, body); the
	// child to follow precedes it. A key equal to a separator descends into
	// that separator's child (its subtree holds keys >= separator).
	lo, _, err := searchNode(p, key, body, true)
	if err != nil || lo == 0 {
		return -1, child0(p), err
	}
	_, _, c, err := decodeInternal(p.Get(lo - 1))
	return lo - 1, c, err
}

// pathElem records the traversal for split propagation.
type pathElem struct {
	pageNo uint64
	slot   int // separator slot followed (-1 = child0)
}

// Insert adds the entry (key, ref). Exact duplicates are ignored.
func (t *Tree) Insert(key []byte, ref index.Ref) error {
	return t.InsertEntry(key, index.EncodeRef(nil, ref))
}

// InsertEntry adds a raw (key, body) entry.
func (t *Tree) InsertEntry(key, body []byte) error {
	if len(key)+len(body) > MaxEntrySize {
		return fmt.Errorf("btree: entry too large (%d bytes)", len(key)+len(body))
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	var path []pathElem
	pageNo := t.root
	for {
		fr, err := t.pool.Get(t.file, pageNo)
		if err != nil {
			return err
		}
		p := page.Wrap(fr.Data())
		if level(p) == 0 {
			err := t.insertLeaf(fr, p, pageNo, key, body, path)
			return err
		}
		slot, child, err := childFor(p, key, body)
		t.pool.Unpin(fr, false)
		if err != nil {
			return err
		}
		path = append(path, pathElem{pageNo: pageNo, slot: slot})
		pageNo = child
	}
}

// insertLeaf places (key, body) in the pinned leaf, splitting as needed.
// It consumes the pin.
func (t *Tree) insertLeaf(fr *buffer.Frame, p page.Page, pageNo uint64, key, body []byte, path []pathElem) error {
	pos, dup, err := searchNode(p, key, body, false)
	if dup || err != nil {
		t.pool.Unpin(fr, false)
		return err // nil for an exact duplicate
	}
	rec := encodeLeaf(key, body)
	if p.InsertAt(pos, rec) {
		t.pool.Unpin(fr, true)
		return nil
	}
	// Split, then insert into the proper half.
	rightNo, sepKey, sepBody, err := t.splitNode(p)
	if err != nil {
		t.pool.Unpin(fr, true)
		return err
	}
	target, targetNo := fr, pageNo
	var rfr *buffer.Frame
	if cmpEntry(key, body, sepKey, sepBody) >= 0 {
		rfr, err = t.pool.Get(t.file, rightNo)
		if err != nil {
			t.pool.Unpin(fr, true)
			return err
		}
		target, targetNo = rfr, rightNo
	}
	ok, err := insertSorted(page.Wrap(target.Data()), key, body, rec)
	if rfr != nil {
		t.pool.Unpin(fr, true)
		t.pool.Unpin(rfr, true)
	} else {
		t.pool.Unpin(fr, true)
	}
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("btree: insert failed after split (page %d)", targetNo)
	}
	return t.insertSeparator(path, sepKey, sepBody, rightNo)
}

// splitNode moves the upper half of the pinned node p into a fresh right
// node and returns the right node's page number and the separator (the
// first entry of the right node). For internal nodes the separator entry
// is REMOVED from the right node and its child becomes the right node's
// child0 (B-tree key promotion).
func (t *Tree) splitNode(p page.Page) (uint64, []byte, []byte, error) {
	rfr, rightNo, err := t.pool.NewPage(t.file)
	if err != nil {
		return 0, nil, nil, err
	}
	rp := page.Wrap(rfr.Data())
	rp.Init()
	setLevel(rp, level(p))

	n := p.NumSlots()
	mid := n / 2
	// Copy upper half into the right node.
	for i := mid; i < n; i++ {
		if !rp.InsertAt(rp.NumSlots(), p.Get(i)) {
			t.pool.Unpin(rfr, true)
			return 0, nil, nil, fmt.Errorf("btree: split copy overflow")
		}
	}
	for i := n - 1; i >= mid; i-- {
		p.DeleteAt(i)
	}
	p.Compact()

	k, b, c, err := nodeKey(rp, 0)
	if err != nil {
		t.pool.Unpin(rfr, true)
		return 0, nil, nil, err
	}
	sepKey := append([]byte(nil), k...)
	sepBody := append([]byte(nil), b...)
	if level(p) == 0 {
		// Leaf sibling chain.
		setSibling(rp, sibling(p))
		setSibling(p, rightNo+1)
	} else {
		setChild0(rp, c)
		rp.DeleteAt(0)
	}
	t.pool.Unpin(rfr, true)
	return rightNo, sepKey, sepBody, nil
}

// insertSeparator inserts (sepKey, sepBody → rightNo) into the parent,
// recursing up the remembered path; an empty path means the root split.
func (t *Tree) insertSeparator(path []pathElem, sepKey, sepBody []byte, rightNo uint64) error {
	if len(path) == 0 {
		// Root split: new root with old root as child0.
		fr, newRootNo, err := t.pool.NewPage(t.file)
		if err != nil {
			return err
		}
		p := page.Wrap(fr.Data())
		p.Init()
		setLevel(p, t.h)
		setChild0(p, t.root)
		ok := p.InsertAt(0, encodeInternal(sepKey, sepBody, rightNo))
		t.pool.Unpin(fr, true)
		if !ok {
			return fmt.Errorf("btree: root separator overflow")
		}
		t.root = newRootNo
		t.h++
		return nil
	}
	parent := path[len(path)-1]
	fr, err := t.pool.Get(t.file, parent.pageNo)
	if err != nil {
		return err
	}
	p := page.Wrap(fr.Data())
	rec := encodeInternal(sepKey, sepBody, rightNo)
	if ok, err := insertSorted(p, sepKey, sepBody, rec); ok || err != nil {
		t.pool.Unpin(fr, ok)
		return err
	}
	prNo, psk, psb, err := t.splitNode(p)
	if err != nil {
		t.pool.Unpin(fr, true)
		return err
	}
	// Choose the half that receives the new separator.
	var ok bool
	if cmpEntry(sepKey, sepBody, psk, psb) >= 0 {
		rfr, err2 := t.pool.Get(t.file, prNo)
		if err2 != nil {
			t.pool.Unpin(fr, true)
			return err2
		}
		ok, err = insertSorted(page.Wrap(rfr.Data()), sepKey, sepBody, rec)
		t.pool.Unpin(rfr, true)
	} else {
		ok, err = insertSorted(p, sepKey, sepBody, rec)
	}
	t.pool.Unpin(fr, true)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("btree: separator insert failed after split")
	}
	return t.insertSeparator(path[:len(path)-1], psk, psb, prNo)
}

// findLeaf descends to the leaf that would hold (key, body).
func (t *Tree) findLeaf(key, body []byte) (uint64, error) {
	pageNo := t.root
	for {
		fr, err := t.pool.Get(t.file, pageNo)
		if err != nil {
			return 0, err
		}
		p := page.Wrap(fr.Data())
		if level(p) == 0 {
			t.pool.Unpin(fr, false)
			return pageNo, nil
		}
		_, child, err := childFor(p, key, body)
		t.pool.Unpin(fr, false)
		if err != nil {
			return 0, err
		}
		pageNo = child
	}
}

// LookupCandidates implements index.Candidates.
func (t *Tree) LookupCandidates(key []byte, fn func(index.Entry) bool) error {
	return t.ScanCandidates(key, append(append([]byte(nil), key...), 0), fn)
}

// ScanCandidates implements index.Candidates: all entries in [lo, hi).
func (t *Tree) ScanCandidates(lo, hi []byte, fn func(index.Entry) bool) error {
	short := false
	err := t.ScanRaw(lo, hi, func(key, body []byte) bool {
		if len(body) < index.RefLen {
			short = true
			return false
		}
		return fn(index.Entry{Key: key, Ref: index.DecodeRef(body)})
	})
	if err == nil && short {
		err = index.ErrShortRef
	}
	return err
}

// ScanRaw walks entries in [lo, hi) in order, calling fn with key and raw
// body. Returning false stops. nil hi means +infinity.
func (t *Tree) ScanRaw(lo, hi []byte, fn func(key, body []byte) bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	leafNo, err := t.findLeaf(lo, nil)
	if err != nil {
		return err
	}
	pos := -1
	for {
		fr, err := t.pool.Get(t.file, leafNo)
		if err != nil {
			return err
		}
		p := page.Wrap(fr.Data())
		if pos < 0 {
			if pos, _, err = searchNode(p, lo, nil, false); err != nil {
				t.pool.Unpin(fr, false)
				return err
			}
		}
		for ; pos < p.NumSlots(); pos++ {
			k, b, err := decodeLeaf(p.Get(pos))
			if err != nil {
				t.pool.Unpin(fr, false)
				return err
			}
			if hi != nil && bytes.Compare(k, hi) >= 0 {
				t.pool.Unpin(fr, false)
				return nil
			}
			kc := append([]byte(nil), k...)
			bc := append([]byte(nil), b...)
			if !fn(kc, bc) {
				t.pool.Unpin(fr, false)
				return nil
			}
		}
		sib := sibling(p)
		t.pool.Unpin(fr, false)
		if sib == 0 {
			return nil
		}
		leafNo = sib - 1
		pos = 0
	}
}

// Delete removes the exact entry (key, body), reporting whether it
// existed. No rebalancing is performed (PostgreSQL-style lazy deletion).
func (t *Tree) Delete(key, body []byte) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	leafNo, err := t.findLeaf(key, body)
	if err != nil {
		return false, err
	}
	fr, err := t.pool.Get(t.file, leafNo)
	if err != nil {
		return false, err
	}
	p := page.Wrap(fr.Data())
	pos, found, err := searchNode(p, key, body, false)
	if found {
		p.DeleteAt(pos)
		t.pool.Unpin(fr, true)
		return true, nil
	}
	t.pool.Unpin(fr, false)
	return false, err
}

var _ index.Candidates = (*Tree)(nil)
