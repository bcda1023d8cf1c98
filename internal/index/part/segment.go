// Package part provides the partition machinery shared by the Partitioned
// B-Tree and the Multi-Version Partitioned B-Tree: immutable, bulk-built
// B-Tree segments (dense-packed prefix-truncated leaves, bottom-up internal
// levels, strictly sequential write-out — paper §4.5/4.7), per-partition
// bloom and prefix-bloom filters, and the shared MV-PBT buffer that evicts
// whole main-memory partitions, largest victim first.
package part

import (
	"bytes"
	"fmt"
	"sync/atomic"

	"mvpbt/internal/bloom"
	"mvpbt/internal/buffer"
	"mvpbt/internal/page"
	"mvpbt/internal/sfile"
	"mvpbt/internal/storage"
)

// KV is one index record: an opaque body under a search key.
type KV struct {
	Key  []byte
	Body []byte
}

// Leaf records are front-coded against their predecessor within the page:
// [sharedLen varint][suffixLen varint][suffix][body], except that the
// records in slots 0, 32, 64, … (restartEvery) are restart records with
// sharedLen 0, their whole key: a seek binary-searches them and decodes one
// interval (leafCursor.seek). A restart record pays the key bytes it would
// have shared (htap write_amp +0.3 %); a leaf of at most 32 records, every
// leaf of 1 KiB values, is encoded as if there were none. Internal records:
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
	// sweepEnd is the leaf after the last sweep fetch (Iterator.enter), 0
	// before any; atomic, yet a plain field so that a Segment copies.
	sweepEnd int32
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
		// Every key of [lo, hi) carries the prefix lo and hi share: a
		// partition without it holds nothing of the range.
		return s.PFilter.MayContainRange(lo, hi)
	}
	return true
}

// corrupt names one page of the segment in an error wrapping
// storage.ErrCorruptPage.
func (s *Segment) corrupt(rel int, cause error) error {
	return fmt.Errorf("part: page %d of %q: %w", s.StartPage+uint64(rel), s.file.Name(), cause)
}

// findLeaf descends to the first relative leaf page that could contain
// key (see innerSearch), searching each internal page in its pinned frame.
// With a hi, end is the leaf that could contain hi, or the last leaf under
// the same lowest internal page when hi lies beyond it: searched for in the
// frame the descent has pinned anyway, and only a hint (a corrupt page may
// make it anything).
func (s *Segment) findLeaf(key, hi []byte) (rel, end int, err error) {
	rel = s.rootRel
	for level := s.height - 1; level >= 1; level-- {
		fr, err := s.pool.Get(s.file, s.StartPage+uint64(rel))
		if err != nil {
			return 0, 0, err
		}
		pg := page.Wrap(fr.Data())
		child, err := innerSearch(pg, key)
		if level == 1 && hi != nil && err == nil {
			end, _ = innerSearch(pg, hi)
		}
		s.pool.Unpin(fr, false)
		if err != nil {
			return 0, 0, s.corrupt(rel, err)
		}
		// Children are written before their parent: a child at or behind it
		// is not one, and following it could leave the segment or loop.
		if child >= rel {
			return 0, 0, s.corrupt(rel, errBadRecord)
		}
		rel = child
	}
	if rel >= s.NumLeaves {
		return 0, 0, s.corrupt(rel, errBadRecord)
	}
	return rel, end, nil
}

// Iterator walks a segment's records in key order, reading them where they
// lie in the page image. On entering a leaf it copies the page out of its
// pool frame (outside the shard latch) into a page buffer of its own and
// unpins the frame at once: a scan holds one iterator per partition across
// its whole merge, and with a pin each would exhaust a pool shard
// (ErrNoFrames). The fetch is the pool's GetRun (see there) over the leaves
// the scan is still expected to read, which SeekScan works out; after a plain
// Seek, and past an estimate that fell short, it is Get's single page; a
// sweep of successive unbounded scans reads MaxRun leaves (see enter).
//
// The zero Iterator is ready for Seek and may be repositioned any number of
// times, on any segment; its buffers are reused, so a caller that keeps or
// pools one reads without allocating. Close it when done with a segment.
//
// LIFETIME: Record's Key and Body point into the iterator's buffers. They
// are valid until the iterator moves — Next, Seek or Close — and must be
// copied to outlive that.
type Iterator struct {
	seg   *Segment
	leaf  int
	left  int    // leaves from the next one entered on that the scan expects to read; < 2 = unknown
	sweep bool   // an unbounded scan of known rows before its first device fetch
	buf   []byte // the current leaf's image; allocated on first use
	cur   leafCursor
	ok    bool
	err   error
}

// Seek returns a new iterator at the first record with key >= key: the
// allocating form of Iterator.Seek, for callers off the hot paths.
func (s *Segment) Seek(key []byte) *Iterator {
	it := new(Iterator)
	it.Seek(s, key)
	return it
}

// Seek positions the iterator at s's first record with key >= key (a nil key
// is the segment's first record).
func (it *Iterator) Seek(s *Segment, key []byte) { it.SeekScan(s, key, nil, 0, 0) }

// SeekScan is Seek(s, lo) by a scan that says how far it will go, so that the
// leaves it needs come in by runs: to the leaf holding hi (nil = unbounded),
// as far as the internal page above lo's leaf tells, and for as many leaves
// as rows records (0 = unknown) make up as s's share of a scan over segments
// holding records in all — rows x NumLeaves / records to the nearest leaf,
// plus one for starting inside a leaf. With neither known, leaves are fetched
// one at a time. A scan that covers the whole segment (lo at or below
// MinKey, hi nil or above MaxKey) reads no internal page: leaves are the
// run's first NumLeaves pages, so it starts at leaf 0 and may go to the last.
func (it *Iterator) SeekScan(s *Segment, lo, hi []byte, rows, records int) {
	it.seg, it.ok, it.err, it.left, it.sweep = s, false, nil, 0, hi == nil && rows > 0
	rel, end := 0, s.NumLeaves-1
	if bytes.Compare(lo, s.MinKey) > 0 || (hi != nil && bytes.Compare(hi, s.MaxKey) <= 0) {
		var err error
		if rel, end, err = s.findLeaf(lo, hi); err != nil {
			it.err = err
			return
		}
	}
	if hi != nil || rows > 0 {
		it.left = s.NumLeaves - rel
		if rows > 0 && rows < records {
			it.left = min(it.left, int((int64(rows)*int64(s.NumLeaves)+int64(records)/2)/int64(records))+1)
		}
		if hi != nil {
			it.left = min(it.left, end-rel+1)
		}
	}
	it.enter(rel)
	it.forward(lo)
}

// Next advances to the following record.
func (it *Iterator) Next() { it.forward(nil) }

// forward moves to the following record — given a min, and only from before
// a leaf's first record, to the first with key >= min — through the end of
// the current leaf into the leaves after it.
func (it *Iterator) forward(min []byte) {
	if it.seg == nil { // never positioned, or closed: there is no next record
		return
	}
	for it.ok = false; it.err == nil && it.leaf < it.seg.NumLeaves; it.enter(it.leaf + 1) {
		var err error
		if len(min) > 0 {
			it.ok, err = it.cur.seek(min)
		} else {
			it.ok, err = it.cur.next()
		}
		if err != nil {
			it.err = it.seg.corrupt(it.leaf, err)
		}
		if it.ok || err != nil {
			return
		}
	}
}

// enter makes relative leaf page rel the current leaf, before its first
// record; past the last leaf it only records the position.
func (it *Iterator) enter(rel int) {
	s := it.seg
	it.leaf = rel
	if rel >= s.NumLeaves {
		return
	}
	if it.buf == nil || poison.Load() {
		it.scribble()
		it.buf = make([]byte, storage.PageSize)
	}
	// left never exceeds the leaves the segment has from rel on (SeekScan).
	// An unbounded scan whose first device fetch starts where the last one
	// ended continues a sweep: it reads MaxRun leaves (GetRun's cap). Only
	// the fetch knows it went to the device; other readers move counters.
	n := it.left
	if it.sweep && rel > 0 && int32(rel) == atomic.LoadInt32(&s.sweepEnd) {
		n = s.NumLeaves - rel
	}
	fr, read, err := s.pool.GetRun(s.file, s.StartPage+uint64(rel), n)
	it.left--
	if err != nil {
		it.err = err
		return
	}
	if it.sweep && read > 0 {
		it.sweep = false
		atomic.StoreInt32(&s.sweepEnd, int32(rel+read))
	}
	copy(it.buf, fr.Data())
	s.pool.Unpin(fr, false)
	it.cur.reset(page.Wrap(it.buf))
}

// Valid reports whether the iterator is on a record.
func (it *Iterator) Valid() bool { return it.ok }

// Err returns the first error the iterator hit.
func (it *Iterator) Err() error { return it.err }

// Record returns the current record; see the lifetime rule on Iterator.
func (it *Iterator) Record() KV { return KV{Key: it.cur.key, Body: it.cur.body} }

// Close ends the iterator's use of its segment, so that a kept or pooled
// iterator does not keep a merged-away segment and its filters alive. The
// iterator stays reusable.
func (it *Iterator) Close() {
	it.seg, it.ok = nil, false
	it.cur = leafCursor{key: it.cur.key[:0]}
	if poison.Load() {
		it.scribble()
	}
}

// poison makes every iterator abandon its buffers, overwritten with 0xDB,
// whenever the lifetime rule says their contents are gone (on entering
// another leaf and on Close): a Key or Body kept too long then reads 0xDB for
// good, not the plausible bytes of whatever a reused buffer holds next.
var poison atomic.Bool

// SetPoison switches poison on or off. For tests, of this package and of
// those above it, only.
func SetPoison(on bool) { poison.Store(on) }

// scribble poisons and drops the iterator's buffers.
func (it *Iterator) scribble() {
	for _, b := range [][]byte{it.buf, it.cur.key[:cap(it.cur.key)]} {
		for i := range b {
			b[i] = 0xDB
		}
	}
	it.buf, it.cur.key = nil, nil
}

// Free releases the segment's pages: the extents return to the space
// manager and any cached pages are dropped. The segment must not be used
// afterwards.
func (s *Segment) Free() {
	s.pool.DropFilePages(s.file, s.StartPage, s.NumPages)
	s.file.FreeRun(s.StartPage, s.NumPages)
}
