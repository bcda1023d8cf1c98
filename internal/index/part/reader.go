package part

import (
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
// Key and Body alias the reader's buffers and are valid only until the next
// call to Next.
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
	r := &Reader{seg: s, leaf: -1, buf: make([]byte, min(sfile.ExtentPages, s.NumLeaves)*storage.PageSize)}
	r.Next()
	return r
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
