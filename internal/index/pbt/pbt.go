// Package pbt implements the basic Partitioned B-Tree of Graefe [12,13] as
// the paper evaluates it: version-oblivious, but with append-based write
// behaviour. New index entries accumulate in a main-memory partition PN
// (held in the shared MV-PBT buffer); when evicted, the partition is
// dense-packed and written to storage as one sequential stream and becomes
// immutable. Lookups and scans process partitions newest to oldest and
// return version CANDIDATES — the base-table visibility check still pays
// one random read per matching entry (Figure 3's "PBT" curve).
package pbt

import (
	"bytes"
	"sync"

	"mvpbt/internal/bloom"
	"mvpbt/internal/buffer"
	"mvpbt/internal/index"
	"mvpbt/internal/index/part"
	"mvpbt/internal/sfile"
	"mvpbt/internal/skiplist"
	"mvpbt/internal/ssd"
)

// pnKey orders PN entries by (key asc, insertion sequence asc).
type pnKey struct {
	key []byte
	seq uint64
}

func cmpPNKey(a, b pnKey) int {
	if c := bytes.Compare(a.key, b.key); c != 0 {
		return c
	}
	switch {
	case a.seq < b.seq:
		return -1
	case a.seq > b.seq:
		return 1
	default:
		return 0
	}
}

// Options configures a PBT.
type Options struct {
	// BloomBits enables per-partition bloom filters (bits per key).
	BloomBits int
	// PrefixLen enables prefix bloom filters for range scans.
	PrefixLen int
}

// Tree is a Partitioned B-Tree. Safe for concurrent use.
type Tree struct {
	mu     sync.Mutex
	opts   Options
	pool   *buffer.Pool
	file   *sfile.File
	pbuf   *part.PartitionBuffer
	pn     *skiplist.List[pnKey, []byte]
	pnSeq  uint64
	parts  []*part.Segment
	nextNo int
	it     part.Iterator // the readers' segment iterator, reused; guarded by mu
}

// New creates an empty PBT storing partitions in file and registering its
// PN with the shared partition buffer.
func New(pool *buffer.Pool, file *sfile.File, pbuf *part.PartitionBuffer, opts Options) *Tree {
	t := &Tree{opts: opts, pool: pool, file: file, pbuf: pbuf}
	t.pn = newPN()
	pbuf.Register(t)
	return t
}

func newPN() *skiplist.List[pnKey, []byte] {
	return skiplist.New[pnKey, []byte](cmpPNKey, func(k pnKey, v []byte) int {
		return len(k.key) + 12 + len(v)
	})
}

// PNBytes implements part.Owner.
func (t *Tree) PNBytes() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pn.Bytes()
}

// NumPartitions returns the number of persisted partitions.
func (t *Tree) NumPartitions() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.parts)
}

// Insert implements index.Candidates: the entry goes to PN only — no
// in-place update of persisted partitions, ever.
func (t *Tree) Insert(key []byte, ref index.Ref) error {
	body := index.EncodeRef(nil, ref)
	if err := part.CheckEntry(len(key) + len(body)); err != nil {
		return err
	}
	t.mu.Lock()
	k := pnKey{key: append([]byte(nil), key...), seq: t.pnSeq}
	t.pnSeq++
	n := t.pn.Bytes()
	t.pn.Set(k, body)
	t.pbuf.Add(t.pn.Bytes() - n)
	t.mu.Unlock()
	return t.pbuf.MaybeEvict()
}

// EvictPN implements part.Owner (Algorithm 4, without the version steps):
// dense-pack PN into an immutable partition, write it sequentially, attach
// it to the partition list.
func (t *Tree) EvictPN() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pn.Len() == 0 {
		return nil
	}
	b := part.NewBuilder(t.pool, t.file, t.nextNo, part.BuildOptions{
		BloomBitsPerKey: t.opts.BloomBits,
		PrefixLen:       t.opts.PrefixLen,
		Cause:           ssd.CauseEvict,
	})
	for it := t.pn.Min(); it.Valid(); it.Next() {
		if err := b.Add(it.Key().key, it.Value()); err != nil {
			return err
		}
	}
	seg, err := b.Finish(0, 0)
	if err != nil {
		return err
	}
	t.nextNo++
	if seg != nil {
		t.parts = append(t.parts, seg)
	}
	t.pbuf.Add(-t.pn.Bytes())
	t.pn = newPN()
	return nil
}

// LookupCandidates implements index.Candidates: all entries for key, PN
// first, then partitions newest to oldest (bloom filters skip partitions).
func (t *Tree) LookupCandidates(key []byte, fn func(index.Entry) bool) error {
	return t.walk(key, nil, true, fn)
}

// ScanCandidates implements index.Candidates: every entry in [lo, hi)
// across PN and all partitions (prefix filters skip partitions). Entries
// arrive grouped by partition (newest first), each group in key order — the
// caller's visibility check does not depend on global ordering for
// candidates.
func (t *Tree) ScanCandidates(lo, hi []byte, fn func(index.Entry) bool) error {
	return t.walk(lo, hi, false, fn)
}

// walk is the read behind both: the entries with key == lo (point) or
// lo <= key < hi, PN first, then the partitions newest to oldest that their
// filter — bloom for a point, key range and prefix for a range — lets in.
func (t *Tree) walk(lo, hi []byte, point bool, fn func(index.Entry) bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	has := func(key []byte) bool {
		if point {
			return bytes.Equal(key, lo)
		}
		return index.KeyInRange(key, lo, hi)
	}
	for it := t.pn.Seek(pnKey{key: lo}); it.Valid() && has(it.Key().key); it.Next() {
		if !fn(index.Entry{Key: it.Key().key, Ref: index.DecodeRef(it.Value())}) {
			return nil
		}
	}
	segIt := &t.it
	defer segIt.Close()
	kh, rp := bloom.HashKey(lo), bloom.NewRangeProbe(lo, hi) // hashed once for every partition
	for i := len(t.parts) - 1; i >= 0; i-- {
		seg := t.parts[i]
		if point {
			if !seg.MayContainKey(lo, kh) {
				continue
			}
		} else if !seg.MayContainRange(lo, hi, rp) {
			continue
		}
		for segIt.SeekScan(seg, lo, hi, 0, 0); segIt.Valid(); segIt.Next() {
			r := segIt.Record()
			if !has(r.Key) {
				break
			}
			if len(r.Body) < index.RefLen {
				return index.ErrShortRef
			}
			if !fn(index.Entry{Key: r.Key, Ref: index.DecodeRef(r.Body)}) {
				return nil
			}
		}
		if err := segIt.Err(); err != nil {
			return err
		}
	}
	return nil
}

var _ index.Candidates = (*Tree)(nil)
