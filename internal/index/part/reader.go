package part

import (
	"math/bits"

	"mvpbt/internal/page"
	"mvpbt/internal/sfile"
	"mvpbt/internal/storage"
)

// Reader streams all of a segment's records in order, for merges. It walks
// the leaves with one device read per extent into its own buffer and reads the
// records where they lie in it (the Iterator's leafCursor), around the buffer
// pool's frames: a merge reads every input page exactly once and frees it
// right after, so caching them would only evict pages someone will read
// again. The pages are immutable and were written around the pool, so the
// device copy is the truth; the read is the pool's checked one all the same
// (Pool.ReadPages: retried, verified, counted).
//
// Its buffer is borrowed from a free list that Close gives it back to. Key and
// Body alias the reader's buffers and are valid until the next Next or Close.
type Reader struct {
	seg   *Segment
	buf   []byte // the leaf pages of the current leaf's extent (room for one extent's)
	first int    // rel of the leaf at the start of buf
	leaf  int    // rel of the current leaf
	cur   leafCursor
	valid bool
	err   error
}

// NewReader returns a reader positioned on the segment's first record.
func (s *Segment) NewReader() *Reader {
	r, n := &Reader{seg: s, leaf: -1}, min(sfile.ExtentPages, s.NumLeaves)*storage.PageSize
	select {
	case r.buf = <-extentBufs:
	default:
	}
	if cap(r.buf) < n { // room for a power of two of pages, to fit later readers
		r.buf = make([]byte, n, storage.PageSize<<bits.Len(uint(n/storage.PageSize-1)))
	}
	r.buf = r.buf[:n]
	r.Next()
	return r
}

// extentBufs is the free list of Readers' buffers: 32 (8 MiB), three 10-way merges.
var extentBufs = make(chan []byte, 32)

// Close gives the buffer back, poisoned under SetPoison. The reader must not
// be used afterwards; closing it again does nothing.
func (r *Reader) Close() {
	for i := 0; poison.Load() && i < len(r.buf); i++ {
		r.buf[i] = 0xDB
	}
	if r.buf != nil {
		select {
		case extentBufs <- r.buf:
		default:
		}
	}
	r.buf = nil
}

// Valid reports whether the reader is on a record.
func (r *Reader) Valid() bool { return r.valid }

// Err returns the error that ended the stream early, if any.
func (r *Reader) Err() error { return r.err }

// Key returns the current record's key.
func (r *Reader) Key() []byte { return r.cur.key }

// Body returns the current record's body.
func (r *Reader) Body() []byte { return r.cur.body }

// Next advances to the following record.
func (r *Reader) Next() {
	r.valid = false
	for r.err == nil && r.leaf < r.seg.NumLeaves {
		ok, err := r.cur.next()
		if err != nil {
			r.err = r.seg.corrupt(r.leaf, err)
			return
		}
		if ok {
			r.valid = true
			return
		}
		if r.leaf++; r.leaf >= r.seg.NumLeaves {
			return
		}
		if r.leaf == 0 || (r.seg.StartPage+uint64(r.leaf))%sfile.ExtentPages == 0 {
			if r.err = r.fill(); r.err != nil {
				return
			}
		}
		off := (r.leaf - r.first) * storage.PageSize
		r.cur.reset(page.Wrap(r.buf[off : off+storage.PageSize]))
	}
}

// fill reads the leaves from r.leaf to the end of its extent into buf.
func (r *Reader) fill() error {
	s := r.seg
	var pages [sfile.ExtentPages][]byte // on the stack: the read keeps none of them
	r.first = r.leaf
	n := min(sfile.ExtentPages-int((s.StartPage+uint64(r.leaf))%sfile.ExtentPages), s.NumLeaves-r.leaf)
	for i := range pages[:n] {
		pages[i] = r.buf[i*storage.PageSize : (i+1)*storage.PageSize]
	}
	return s.pool.ReadPages(s.file, s.StartPage+uint64(r.leaf), pages[:n])
}
