// Package part provides the partition machinery shared by the Partitioned
// B-Tree and the Multi-Version Partitioned B-Tree: immutable, bulk-built
// B-Tree segments (dense-packed prefix-truncated leaves, bottom-up internal
// levels, strictly sequential write-out — paper §4.5/4.7), per-partition
// bloom and prefix-bloom filters, and the shared MV-PBT buffer that evicts
// whole main-memory partitions, largest victim first.
package part

import (
	"bytes"
	"sync/atomic"

	"mvpbt/internal/bloom"
	"mvpbt/internal/buffer"
	"mvpbt/internal/page"
	"mvpbt/internal/sfile"
	"mvpbt/internal/util"
)

// KV is one index record: an opaque body under a search key.
type KV struct {
	Key  []byte
	Body []byte
}

// Leaf records are front-coded against their predecessor within the page:
// [sharedLen varint][suffixLen varint][suffix][body]. Internal records:
// [keyLen varint][key][child varint] with child page numbers RELATIVE to
// the segment start, so pages can be written sequentially without
// patching.

// Segment is one immutable on-disk partition: a dense B-Tree over sorted
// records, plus filters and metadata. Reads go through the shared buffer
// pool; the segment itself is read-only.
type Segment struct {
	No         int // partition number
	pool       *buffer.Pool
	file       *sfile.File
	StartPage  uint64
	NumPages   int
	NumLeaves  int
	rootRel    int // page number of the root, relative to StartPage
	height     int
	MinKey     []byte
	MaxKey     []byte
	MinTS      uint64
	MaxTS      uint64
	NumRecords int
	SizeBytes  int
	Filter     *bloom.Filter
	PFilter    *bloom.PrefixFilter

	// Decoded-page caches, filled lazily on first access. Segments are
	// immutable, so any published decode stays valid; entries are atomic
	// pointers because segment readers run lock-free under the index's
	// snapshot protocol. Concurrent readers may race to decode the same
	// page — wasted work, never an inconsistent read. While a page is
	// cached, reads of it bypass the buffer pool (and its shard latches)
	// entirely; a pool eviction hook drops the decoded form when the
	// backing page leaves the pool, so the cache saves decode CPU without
	// changing the pool's I/O behavior.
	leaves []atomic.Pointer[[]KV]    // by leaf page rel: decoded records
	inner  []atomic.Pointer[sepNode] // by rel-NumLeaves: decoded separators
	hookID int                       // pool eviction-hook handle
}

// sepNode is one decoded internal node: child separator keys (first key of
// each child subtree) and relative child page numbers, in slot order.
type sepNode struct {
	keys  [][]byte
	child []int
}

// initCache sizes the decoded-page caches and couples them to buffer
// residency; called once at construction.
func (s *Segment) initCache() {
	s.leaves = make([]atomic.Pointer[[]KV], s.NumLeaves)
	if n := s.NumPages - s.NumLeaves; n > 0 {
		s.inner = make([]atomic.Pointer[sepNode], n)
	}
	s.hookID = s.pool.AddEvictHook(s.file, s.StartPage, s.NumPages, s.dropDecoded)
}

// dropDecoded discards the decoded form of relative page rel. Runs under a
// pool shard latch (eviction hook): atomic stores only.
func (s *Segment) dropDecoded(rel int) {
	if rel < len(s.leaves) {
		s.leaves[rel].Store(nil)
	} else if slot := rel - s.NumLeaves; slot >= 0 && slot < len(s.inner) {
		s.inner[slot].Store(nil)
	}
}

func decodeInternalRec(rec []byte) (key []byte, rel int) {
	kl, n := util.Uvarint(rec)
	key = rec[n : n+int(kl)]
	r, _ := util.Uvarint(rec[n+int(kl):])
	return key, int(r)
}

// MayContainKey consults the bloom filter (true when absent or filters are
// disabled means "must search").
func (s *Segment) MayContainKey(key []byte) bool {
	if bytes.Compare(key, s.MinKey) < 0 || bytes.Compare(key, s.MaxKey) > 0 {
		return false
	}
	if s.Filter != nil {
		return s.Filter.MayContain(key)
	}
	return true
}

// MayContainRange consults min/max keys and the prefix bloom filter for a
// scan over [lo, hi) (hi nil = +inf).
func (s *Segment) MayContainRange(lo, hi []byte) bool {
	if hi != nil && bytes.Compare(s.MinKey, hi) >= 0 {
		return false
	}
	if bytes.Compare(s.MaxKey, lo) < 0 {
		return false
	}
	if s.PFilter != nil && hi != nil {
		// The prefix filter needs an inclusive upper bound sharing the
		// prefix; approximate with hi itself (conservative: extra trues
		// only when hi is exactly on a prefix boundary).
		return s.PFilter.MayContainRange(lo, hi)
	}
	return true
}

// readLeaf decodes all records of relative leaf page rel. Decoded leaves
// are memoized per page (segments are immutable, so any published decode
// is valid forever), which makes repeated seeks into a hot partition
// cheap and latch-free. Safe for concurrent readers.
func (s *Segment) readLeaf(rel int) ([]KV, error) {
	if rel < len(s.leaves) {
		if p := s.leaves[rel].Load(); p != nil {
			return *p, nil
		}
	}
	fr, err := s.pool.Get(s.file, s.StartPage+uint64(rel))
	if err != nil {
		return nil, err
	}
	p := page.Wrap(fr.Data())
	n := p.NumSlots()
	out := make([]KV, 0, n)
	// Single backing buffer for all decoded keys and bodies: two passes,
	// first to size it (front-coding means decoded keys are larger than
	// their stored suffixes).
	total := 0
	for i := 0; i < n; i++ {
		rec := p.Get(i)
		shared, c := util.Uvarint(rec)
		_, c2 := util.Uvarint(rec[c:])
		total += int(shared) + len(rec) - c - c2
	}
	buf := make([]byte, 0, total)
	var prev []byte
	for i := 0; i < n; i++ {
		rec := p.Get(i)
		shared, c := util.Uvarint(rec)
		sl, c2 := util.Uvarint(rec[c:])
		kStart := len(buf)
		buf = append(buf, prev[:shared]...)
		buf = append(buf, rec[c+c2:c+c2+int(sl)]...)
		key := buf[kStart:len(buf):len(buf)]
		bStart := len(buf)
		buf = append(buf, rec[c+c2+int(sl):]...)
		body := buf[bStart:len(buf):len(buf)]
		out = append(out, KV{Key: key, Body: body})
		prev = key
	}
	// Publish before Unpin: while pinned the page cannot be evicted, so the
	// eviction hook cannot fire between the store and the pin release.
	if rel < len(s.leaves) {
		s.leaves[rel].Store(&out)
	}
	s.pool.Unpin(fr, false)
	return out, nil
}

// readInner decodes the separators of relative internal page rel, memoized
// like readLeaf.
func (s *Segment) readInner(rel int) (*sepNode, error) {
	slot := rel - s.NumLeaves
	if slot >= 0 && slot < len(s.inner) {
		if p := s.inner[slot].Load(); p != nil {
			return p, nil
		}
	}
	fr, err := s.pool.Get(s.file, s.StartPage+uint64(rel))
	if err != nil {
		return nil, err
	}
	p := page.Wrap(fr.Data())
	n := p.NumSlots()
	node := &sepNode{keys: make([][]byte, n), child: make([]int, n)}
	for i := 0; i < n; i++ {
		k, c := decodeInternalRec(p.Get(i))
		node.keys[i] = append([]byte(nil), k...)
		node.child[i] = c
	}
	if slot >= 0 && slot < len(s.inner) {
		s.inner[slot].Store(node)
	}
	s.pool.Unpin(fr, false)
	return node, nil
}

// findLeaf descends to the first relative leaf page that could contain
// key. Because duplicate keys may span leaf boundaries, the descent picks
// the LAST child whose first key is strictly below key — a run of equal
// keys beginning at a leaf boundary is then entered from its first record
// (the iterator skips the preceding leaf's smaller keys).
func (s *Segment) findLeaf(key []byte) (int, error) {
	rel := s.rootRel
	for level := s.height - 1; level >= 1; level-- {
		node, err := s.readInner(rel)
		if err != nil {
			return 0, err
		}
		// First child whose first key >= key; descend into its
		// predecessor (default: the first child).
		lo, hi := 0, len(node.keys)
		for lo < hi {
			mid := (lo + hi) / 2
			if bytes.Compare(node.keys[mid], key) < 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		idx := lo - 1
		if idx < 0 {
			idx = 0
		}
		rel = node.child[idx]
	}
	return rel, nil
}

// Iterator walks a segment's records in key order.
type Iterator struct {
	seg  *Segment
	leaf int
	recs []KV
	pos  int
	err  error
}

// Seek positions an iterator at the first record with key >= key.
func (s *Segment) Seek(key []byte) *Iterator {
	it := &Iterator{seg: s}
	rel, err := s.findLeaf(key)
	if err != nil {
		it.err = err
		return it
	}
	it.leaf = rel
	it.recs, it.err = s.readLeaf(rel)
	for it.Valid() && bytes.Compare(it.recs[it.pos].Key, key) < 0 {
		it.Next()
	}
	return it
}

// Min positions an iterator at the segment's first record.
func (s *Segment) Min() *Iterator {
	it := &Iterator{seg: s}
	it.recs, it.err = s.readLeaf(0)
	return it
}

func (it *Iterator) advanceLeaf() {
	it.leaf++
	it.pos = 0
	if it.leaf >= it.seg.NumLeaves {
		it.recs = nil
		return
	}
	it.recs, it.err = it.seg.readLeaf(it.leaf)
}

// Valid reports whether the iterator is on a record.
func (it *Iterator) Valid() bool { return it.err == nil && it.pos < len(it.recs) }

// Err returns the first error the iterator hit.
func (it *Iterator) Err() error { return it.err }

// Record returns the current record.
func (it *Iterator) Record() KV { return it.recs[it.pos] }

// Next advances to the following record.
func (it *Iterator) Next() {
	it.pos++
	if it.pos >= len(it.recs) {
		it.advanceLeaf()
	}
}

// Free releases the segment's pages: the extents return to the space
// manager and any cached pages are dropped. The segment must not be used
// afterwards.
func (s *Segment) Free() {
	s.pool.RemoveEvictHook(s.hookID)
	s.pool.DropFilePages(s.file, s.StartPage, s.NumPages)
	s.file.FreeRun(s.StartPage, s.NumPages)
}
