// Package part provides the partition machinery shared by the Partitioned
// B-Tree and the Multi-Version Partitioned B-Tree: immutable, bulk-built
// segments (dense-packed prefix-truncated leaves written strictly
// sequentially — paper §4.5/4.7 — under fences, each leaf's first and last
// keys, held in memory in place of internal levels), per-partition bloom and
// prefix-bloom filters, and the shared MV-PBT buffer that evicts whole
// main-memory partitions, largest victim first.
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
// leaf of 1 KiB values, is encoded as if there were none. A segment's run is
// its leaves and nothing else.

// Segment is one immutable partition: sorted records in a run of leaves on
// the device, and in memory their fences, filters and metadata, as an
// SSTable keeps its index block pinned. Leaves are read through the shared
// buffer pool; the segment itself is read-only.
type Segment struct {
	No         int // partition number
	pool       *buffer.Pool
	file       *sfile.File
	StartPage  uint64
	NumLeaves  int // the run's pages, all of them leaves
	fences     fences
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

// MinKey and MaxKey are the segment's first and last keys, the two ends of
// its fences.
func (s *Segment) MinKey() []byte { return s.fences.key(0) }
func (s *Segment) MaxKey() []byte { return s.fences.last(s.NumLeaves - 1) }

// MayContainKey consults min/max keys and the bloom filter for key, whose
// bloom.HashKey is h (true when absent or filters are disabled means "must
// search").
func (s *Segment) MayContainKey(key []byte, h bloom.Hash) bool {
	if bytes.Compare(key, s.MinKey()) < 0 || bytes.Compare(key, s.MaxKey()) > 0 {
		return false
	}
	if s.Filter != nil {
		return s.Filter.MayContainHash(h)
	}
	return true
}

// MayContainRange consults min/max keys and the prefix bloom filter for a
// scan over [lo, hi) (hi nil = +inf), whose bloom.NewRangeProbe is r.
func (s *Segment) MayContainRange(lo, hi []byte, r bloom.RangeProbe) bool {
	if hi != nil && bytes.Compare(s.MinKey(), hi) >= 0 {
		return false
	}
	if bytes.Compare(s.MaxKey(), lo) < 0 {
		return false
	}
	if s.PFilter != nil && hi != nil {
		// Every key of [lo, hi) carries the prefix lo and hi share: a
		// partition without it holds nothing of the range.
		return s.PFilter.MayContainRange(r)
	}
	return true
}

// corrupt names one page of the segment in an error wrapping
// storage.ErrCorruptPage.
func (s *Segment) corrupt(rel int, cause error) error {
	return fmt.Errorf("part: page %d of %q: %w", s.StartPage+uint64(rel), s.file.Name(), cause)
}

// fences are a segment's leaves' first and last keys in leaf order, in one
// arena: the keys back to back, and where each ends; leaf i's first key is
// the arena's key 2i and its last key 2i+1. A segment writes no internal
// levels: no partition is ever reopened from the device (recovery is
// logical), so finding a leaf is all they would be read for, and a search
// over the fences does that without a page.
type fences struct {
	keys []byte
	ends []uint32
}

func (f *fences) add(key []byte) {
	f.keys = append(f.keys, key...)
	f.ends = append(f.ends, uint32(len(f.keys)))
}

// at returns the arena's key j.
func (f fences) at(j int) []byte {
	lo := uint32(0)
	if j > 0 {
		lo = f.ends[j-1]
	}
	return f.keys[lo:f.ends[j]:f.ends[j]]
}

// key returns leaf i's first key, last its last key.
func (f fences) key(i int) []byte  { return f.at(2 * i) }
func (f fences) last(i int) []byte { return f.at(2*i + 1) }

// findLeaf returns the last leaf whose first key is strictly below key, or
// leaf 0. Strictly: the versions of a key lie side by side and may run
// across a leaf boundary, and a seek must reach the first of them. The leaf
// a seek enters is this one unless its last key is below key too (SeekScan).
func (s *Segment) findLeaf(key []byte) int {
	lo, hi := 1, s.NumLeaves
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bytes.Compare(s.fences.key(mid), key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// FenceBytes is the memory the segment's fences take.
func (s *Segment) FenceBytes() int { return len(s.fences.keys) + 4*len(s.fences.ends) }

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
// and for as many leaves as rows records (0 = unknown) make up as s's share
// of a scan over segments holding records in all — rows x NumLeaves / records
// to the nearest leaf, plus one for starting inside a leaf. With neither
// known, leaves are fetched one at a time.
// The seek enters the first leaf whose last key is at or above lo. With no
// such leaf, or one that starts at or above hi, it fetches nothing and the
// iterator is done: a caller passing hi reads nothing at or above it.
func (it *Iterator) SeekScan(s *Segment, lo, hi []byte, rows, records int) {
	it.seg, it.ok, it.err, it.left, it.sweep = s, false, nil, 0, hi == nil && rows > 0
	rel := s.findLeaf(lo)
	if bytes.Compare(s.fences.last(rel), lo) < 0 {
		rel++ // every key of leaf rel is below lo
	}
	if rel == s.NumLeaves || hi != nil && bytes.Compare(s.fences.key(rel), hi) >= 0 {
		it.leaf = s.NumLeaves // nothing in [lo, hi)
		return
	}
	if hi != nil || rows > 0 {
		it.left = s.NumLeaves - rel
		if rows > 0 && rows < records {
			it.left = min(it.left, int((int64(rows)*int64(s.NumLeaves)+int64(records)/2)/int64(records))+1)
		}
		if hi != nil {
			it.left = min(it.left, s.findLeaf(hi)-rel+1)
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
	s.pool.DropFilePages(s.file, s.StartPage, s.NumLeaves)
	s.file.FreeRun(s.StartPage, s.NumLeaves)
}
