package part

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"mvpbt/internal/bloom"
	"mvpbt/internal/buffer"
	"mvpbt/internal/page"
	"mvpbt/internal/sfile"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
	"mvpbt/internal/util"
)

// BuildOptions tunes segment construction.
type BuildOptions struct {
	// BloomBitsPerKey sizes the partition bloom filter; 0 disables it.
	BloomBitsPerKey int
	// PrefixLen enables a prefix bloom filter over every key prefix of at
	// least PrefixLen bytes; a range scan whose bounds share that many
	// leading bytes or more asks it for the longest prefix they share. 0
	// disables it.
	PrefixLen int
	// Cause is what the device books the leaves' writes to.
	Cause ssd.Cause
}

// leafBudget is the bytes (records + slots) a leaf takes before the next is
// started: leaves are dense-packed (§4.7).
const leafBudget = storage.PageSize - 64

// MaxEntry is the largest key+body a leaf holds: the one record of an empty
// leaf, whose header (shared length 0, then the key's length, two bytes for
// any key a page holds) is at its widest.
const MaxEntry = page.MaxRecordLen - 3

// ErrEntryTooLarge is an entry over MaxEntry. MV-PBT, the PBT and the LSM
// refuse it before it is buffered: no leaf could ever hold it, so an
// eviction or flush that met it would fail every time it ran.
var ErrEntryTooLarge = errors.New("part: entry too large for a leaf")

// CheckEntry returns ErrEntryTooLarge if an entry of n bytes of key and
// body is over MaxEntry.
func CheckEntry(n int) error {
	if n > MaxEntry {
		return fmt.Errorf("%w (%d bytes, at most %d)", ErrEntryTooLarge, n, MaxEntry)
	}
	return nil
}

// restartEvery is the leaf's restart interval: slots 0, R, 2R, … hold their
// whole key (shared length 0), so that a seek binary-searches them and
// decodes at most one interval (see leafCursor.seek). 32 against 16 was as
// fast on htap at half the bytes (write_amp +0.25 % against +0.6 %), and a
// leaf of at most 32 records, every 1 KiB-value leaf, encodes as without.
const restartEvery = 32

// buildScratch is what a build needs only while it runs: the leaf image,
// the fences arena (Finish copies the fences at their size) and the filter
// hashes. Builds recycle it through scratchPool, so a build allocates what
// its segment keeps, not a leaf, its fences and 8 KiB per 512 hashes afresh
// for every eviction and merge.
type buildScratch struct {
	leaf           [storage.PageSize]byte
	fences         fences   // each leaf's first key as it is started, its last as it is written
	keys, prefixes hashList // for the bloom and the prefix filter, if enabled
}

var scratchPool = sync.Pool{New: func() any { return new(buildScratch) }}

const hashChunk = 512 // hashes in one chunk of a hashList

// hashList collects key hashes in fixed-size chunks, so a long build never
// re-copies what it has collected; emptied for the next build, it keeps its
// chunks past its length and fills them again. A hash equal to its
// predecessor (another version of the key) is dropped: a filter bit is set
// or not.
type hashList [][]bloom.Hash

func (l *hashList) add(h bloom.Hash) {
	n := len(*l)
	if n == 0 || len((*l)[n-1]) == hashChunk {
		if n < cap(*l) && cap((*l)[:n+1][n]) == hashChunk {
			*l = (*l)[:n+1]
			(*l)[n] = (*l)[n][:0]
		} else {
			*l = append(*l, make([]bloom.Hash, 0, hashChunk))
		}
		n++
	}
	last := &(*l)[n-1]
	if k := len(*last); k == 0 || (*last)[k-1] != h {
		*last = append(*last, h)
	}
}

func (l hashList) len() (n int) {
	for _, c := range l {
		n += len(c)
	}
	return n
}

func (l hashList) each(fn func(bloom.Hash)) {
	for _, c := range l {
		for _, h := range c {
			fn(h)
		}
	}
}

// Builder writes one segment from records handed to Add in final sort
// order, in bounded memory (paper §4.5/§4.7, Algorithm 4: one sorted pass
// that dense-packs leaves and writes them sequentially). Records are
// front-coded straight into one page image, which is checksummed and written
// the moment it fills — one WritePage each, never batched: the Fig. 8 device
// charges a 64 KiB sequential write more than eight 8 KiB ones. Only each
// leaf's first and last keys and the keys' filter hashes are kept: the keys
// become the segment's fences and the hashes its filters, and no page but a
// leaf is written. A build that fails or is aborted frees its pages; it is
// over at the first error.
//
// Each leaf takes the file's next page (AllocPage) as it is written, never
// ahead: the size is unknown until the last record, and reserving a bound
// would charge live bytes — and risk ErrNoSpace — for pages the segment
// never has. So a run starts in the file's open extent, where the previous
// segment ended, and partitions pack the file's extents (§4.7) rather than
// each rounding up to whole ones. The builder must be the only allocator on
// the file while it runs (the index structures serialize their builds per
// file; an allocation in between is reported, not built around).
type Builder struct {
	pool *buffer.Pool
	file *sfile.File
	no   int
	opts BuildOptions

	start  uint64        // first page of the run, once nPages > 0
	nPages int           // pages the run holds: the rel of the leaf under construction; 0 once done
	s      *buildScratch // nil once the build is over
	node   page.Page     // the one leaf image, s.leaf
	used   int           // of leafBudget, in the current leaf

	lastKey []byte // a copy of the previous record's key
	n, size int    // records added, and their encoded bytes
}

// NewBuilder starts segment number no in file. Nothing touches the file
// until the first page fills.
func NewBuilder(pool *buffer.Pool, file *sfile.File, no int, opts BuildOptions) *Builder {
	s := scratchPool.Get().(*buildScratch)
	b := &Builder{pool: pool, file: file, no: no, opts: opts, s: s, node: page.Wrap(s.leaf[:])}
	b.startLeaf()
	return b
}

// startLeaf formats the page image as an empty leaf. The whole image is
// cleared, not just the header: a page's bytes are a function of its records
// alone.
func (b *Builder) startLeaf() {
	clear(b.node.Bytes())
	b.node.Init()
	b.used = 0
}

// Add appends one record. key and body are copied before Add returns. On
// error the build is already rolled back.
func (b *Builder) Add(key, body []byte) error {
	var hdr [2 * binary.MaxVarintLen64]byte
	encode := func(shared int) (h, n int) {
		h = binary.PutUvarint(hdr[:], uint64(shared))
		h += binary.PutUvarint(hdr[h:], uint64(len(key)-shared))
		return h, h + len(key) - shared + len(body)
	}
	common := util.CommonPrefix(b.lastKey, key)
	shared := 0
	if b.node.NumSlots()%restartEvery != 0 {
		shared = common
	}
	h, n := encode(shared)
	if b.used+n+4 > leafBudget && b.node.NumSlots() > 0 {
		if err := b.writeLeaf(); err != nil {
			return b.fail(err)
		}
		b.startLeaf()
		shared = 0
		h, n = encode(0)
	}
	if b.node.NumSlots() == 0 {
		b.s.fences.add(key)
	}
	rec := b.node.Append(n)
	if rec == nil {
		return b.fail(CheckEntry(len(key) + len(body)))
	}
	copy(rec, hdr[:h])
	copy(rec[h:], key[shared:])
	copy(rec[h+len(key)-shared:], body)
	b.used += n + 4
	b.size += n

	if b.opts.BloomBitsPerKey > 0 {
		b.s.keys.add(bloom.HashKey(key))
	}
	if p := b.opts.PrefixLen; p > 0 {
		// Every prefix of PrefixLen bytes or more that the previous key
		// does not share (see bloom.PrefixFilter.AddHash).
		for l := max(p, common+1); l <= len(key); l++ {
			b.s.prefixes.add(bloom.HashKey(key[:l]))
		}
	}
	b.lastKey = append(b.lastKey[:0], key...)
	b.n++
	return nil
}

// writeLeaf writes the page image as the run's next page — around the pool's
// frames, through its checked write.
func (b *Builder) writeLeaf() error {
	b.s.fences.add(b.lastKey)
	no, err := b.file.AllocPage()
	if err != nil {
		return fmt.Errorf("part: segment alloc: %w", err)
	}
	if b.nPages == 0 {
		b.start = no
	} else if no != b.start+uint64(b.nPages) {
		b.file.FreeRun(no, 1)
		return fmt.Errorf("part: segment alloc: pages allocated in %q behind the run under construction", b.file.Name())
	}
	b.nPages++
	if err := b.pool.WritePage(b.file, no, b.node.Bytes(), b.opts.Cause); err != nil {
		return fmt.Errorf("part: segment write-out: %w", err)
	}
	return nil
}

// fail rolls the build back.
func (b *Builder) fail(err error) error {
	b.Abort()
	return err
}

// Abort abandons the build, frees its pages and returns its scratch to
// scratchPool. It is a no-op after Finish or a failed Add, so callers may
// defer it, as Finish does.
func (b *Builder) Abort() {
	if b.nPages > 0 {
		b.file.FreeRun(b.start, b.nPages)
		b.nPages = 0
	}
	if s := b.s; s != nil {
		s.fences = fences{keys: s.fences.keys[:0], ends: s.fences.ends[:0]}
		s.keys, s.prefixes = s.keys[:0], s.prefixes[:0]
		scratchPool.Put(s)
		b.s, b.node = nil, page.Page{}
	}
}

// Finish writes the last leaf and returns the segment, or nil if no record
// was added.
//
// minTS/maxTS are caller-provided timestamp bounds of the records (the
// Minimum Transaction Timestamp partition filter of §4.2); pass 0,0 if
// unused.
func (b *Builder) Finish(minTS, maxTS uint64) (*Segment, error) {
	defer b.Abort() // frees nothing once the segment owns the run
	if b.n == 0 {
		return nil, nil
	}
	if err := b.writeLeaf(); err != nil {
		return nil, b.fail(err)
	}
	// Held at their size: the builder's arena grew by doubling.
	f := fences{keys: bytes.Clone(b.s.fences.keys), ends: slices.Clone(b.s.fences.ends)}
	seg := &Segment{
		No:         b.no,
		pool:       b.pool,
		file:       b.file,
		StartPage:  b.start,
		NumLeaves:  b.nPages,
		fences:     f,
		MinTS:      minTS,
		MaxTS:      maxTS,
		NumRecords: b.n,
		SizeBytes:  b.size,
	}
	if bits := b.opts.BloomBitsPerKey; bits > 0 {
		seg.Filter = bloom.New(b.n, bits)
		b.s.keys.each(seg.Filter.AddHash)
	}
	if p := b.opts.PrefixLen; p > 0 {
		seg.PFilter = bloom.NewPrefix(b.s.prefixes.len(), b.opts.BloomBitsPerKey+2, p)
		b.s.prefixes.each(seg.PFilter.AddHash)
	}
	b.nPages = 0 // the segment owns the run now
	return seg, nil
}

// Build writes a segment from sorted records: NewBuilder, Add each, Finish.
// It returns nil for an empty record set.
func Build(pool *buffer.Pool, file *sfile.File, no int, kvs []KV, minTS, maxTS uint64, opts BuildOptions) (*Segment, error) {
	b := NewBuilder(pool, file, no, opts)
	for i := range kvs {
		if err := b.Add(kvs[i].Key, kvs[i].Body); err != nil {
			return nil, err
		}
	}
	return b.Finish(minTS, maxTS)
}
