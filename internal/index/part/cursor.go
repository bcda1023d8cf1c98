package part

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"mvpbt/internal/page"
	"mvpbt/internal/storage"
	"mvpbt/internal/util"
)

// errBadRecord reports a leaf record whose varints or lengths overrun its
// slot: device bytes that passed their checksum and still are not a segment
// page. Callers add the page.
var errBadRecord = fmt.Errorf("part: malformed record: %w", storage.ErrCorruptPage)

// leafCursor walks the front-coded records of one leaf page image where they
// lie: nothing is decoded ahead of the slot it stands on. A record's key
// needs its predecessor's, so the walk is forward only and the key is rebuilt
// in one buffer the cursor reuses; the body is a slice of the page. Both are
// valid until the cursor moves. It is the only decoder of leaf records: the
// Iterator runs it over its copy of a pool page, the Reader over its extent
// buffer.
//
// Every restartEvery-th record carries its whole key, which lets seek start
// inside the page (see there); next reads it as any other record.
//
// The page is device input: a slot outside the page, a varint that does not
// end, a shared length above the previous key's or a suffix longer than the
// record end the walk with errBadRecord, never with a panic.
type leafCursor struct {
	pg   page.Page
	n    int    // slots in pg
	slot int    // the current record's; n once past the last
	key  []byte // the current record's key
	body []byte // the current record's body, inside pg
}

// reset puts the cursor before the first record of pg.
func (c *leafCursor) reset(pg page.Page) {
	c.pg, c.n, c.slot = pg, pg.NumSlots(), -1
	c.key, c.body = c.key[:0], nil
}

// record splits the record in the current slot: how many leading bytes its
// key takes from its predecessor's (which has have of them), its own key
// bytes, its body.
func (c *leafCursor) record(have int) (shared int, own, body []byte, err error) {
	rec := c.pg.Get(c.slot)
	sh, a := binary.Uvarint(rec)
	if a <= 0 || sh > uint64(have) {
		return 0, nil, nil, errBadRecord
	}
	sl, b := binary.Uvarint(rec[a:])
	if b <= 0 || sl > uint64(len(rec)-a-b) {
		return 0, nil, nil, errBadRecord
	}
	rec = rec[a+b:]
	return int(sh), rec[:sl], rec[sl:], nil
}

// next moves to the following record and reports whether there is one. The
// zero cursor has none.
func (c *leafCursor) next() (bool, error) {
	if c.slot+1 >= c.n {
		c.slot = c.n
		return false, nil
	}
	c.slot++
	shared, own, body, err := c.record(len(c.key))
	if err != nil {
		return false, err
	}
	c.key, c.body = append(c.key[:shared], own...), body
	return true, nil
}

// seek moves a cursor that stands before the first record (reset) to the
// first record whose key is >= min, and reports whether the page has one.
//
// It starts at the last restart slot (see restartEvery) whose key is
// strictly below min, found by binary search over the restart slots alone,
// so a seek decodes about log2(n/R) + R/2 records, not n/2. Strictly: the
// versions of a key lie side by side and may run across a restart slot, and
// the seek must land on the first of them. A restart record that takes bytes
// from a predecessor is not one the builder writes, and fails as such.
//
// From there front-coding pays for the walk. While the records are below
// min, matched is how many leading bytes the last one has in common with
// min; a record that takes more than that from its predecessor differs from
// min where the predecessor did, the same way, and is passed over unread.
// Any other is compared from its first own byte on, and as what it took from
// its predecessor it shares with min, the key the walk ends on is min's
// prefix plus that record's own bytes: no key is rebuilt along the way.
func (c *leafCursor) seek(min []byte) (bool, error) {
	lo, hi := 1, (c.n-1)/restartEvery+1 // the restart slots after slot 0, by index
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		c.slot = mid * restartEvery
		_, key, _, err := c.record(0)
		if err != nil {
			return false, err
		}
		if bytes.Compare(key, min) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	c.slot = (lo-1)*restartEvery - 1
	matched, have := 0, 0 // have: the length of the previous record's key
	for c.slot+1 < c.n {
		c.slot++
		shared, own, body, err := c.record(have)
		if err != nil {
			return false, err
		}
		if have = shared + len(own); shared > matched {
			continue
		}
		rest := min[shared:]
		n := util.CommonPrefix(own, rest)
		if n == len(rest) || (n < len(own) && own[n] > rest[n]) {
			c.key, c.body = append(append(c.key[:0], min[:shared]...), own...), body
			return true, nil
		}
		matched = shared + n
	}
	c.slot = c.n
	return false, nil
}
