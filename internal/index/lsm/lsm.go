// Package lsm implements the LSM-Tree baseline the paper compares MV-PBT
// against (§5 "Comparison to LSM-Trees", Figure 15): a skiplist memtable,
// tiered L0 runs flushed from it, and levelled compaction below — each run
// an immutable bulk-built B-Tree segment with a bloom filter, like
// WiredTiger's LSM components. Point lookups probe the memtable and then
// every run newest-to-oldest (bloom filters skip runs); range scans merge
// all runs with newest-wins shadowing; deletes are tombstones that
// compaction drops at the bottom level.
package lsm

import (
	"bytes"
	"fmt"
	"slices"
	"sync"

	"mvpbt/internal/bloom"
	"mvpbt/internal/buffer"
	"mvpbt/internal/index/part"
	"mvpbt/internal/sfile"
	"mvpbt/internal/skiplist"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
	"mvpbt/internal/util"
)

// Options configures an LSM tree.
type Options struct {
	// MemtableBytes is the flush threshold (default 1 MiB).
	MemtableBytes int
	// L0Runs is the number of L0 runs that triggers compaction into L1
	// (default 4).
	L0Runs int
	// LevelRatio is the size ratio between adjacent levels (default 10).
	LevelRatio int
	// BloomBits is the per-run bloom filter size in bits per key
	// (default 10; 0 disables).
	BloomBits int
}

func (o Options) withDefaults() Options {
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = 1 << 20
	}
	if o.L0Runs <= 0 {
		o.L0Runs = 4
	}
	if o.LevelRatio <= 0 {
		o.LevelRatio = 10
	}
	return o
}

// memEntry is a memtable value.
type memEntry struct {
	seq  uint64
	tomb bool
	val  []byte
}

// Body encoding in runs: [seq varint][flags 1B][value...].
func encodeBody(dst []byte, e memEntry) []byte {
	dst = util.PutUvarint(dst, e.seq)
	var f byte
	if e.tomb {
		f = 1
	}
	dst = append(dst, f)
	return append(dst, e.val...)
}

// errShortBody is a run entry whose body ends before its flags byte: the
// page's checksum held, so the tree wrote it wrong.
var errShortBody = fmt.Errorf("lsm: short entry body: %w", storage.ErrCorruptPage)

func decodeBody(b []byte) (memEntry, error) {
	seq, n := util.Uvarint(b)
	if n <= 0 || n >= len(b) {
		return memEntry{}, errShortBody
	}
	return memEntry{seq: seq, tomb: b[n]&1 != 0, val: b[n+1:]}, nil
}

// Stats aggregates LSM activity.
type Stats struct {
	Flushes     int64
	Compactions int64
	// BloomNegatives counts runs skipped during gets.
	BloomNegatives int64
}

// Tree is an LSM tree. Safe for concurrent use: one lock, mu, covers every
// operation, as the B-Tree's and the PBT's do. The write that fills the
// memtable builds its run and runs every compaction then due, inline (the
// inserting client pays).
type Tree struct {
	mu    sync.Mutex
	opts  Options
	pool  *buffer.Pool
	file  *sfile.File
	mem   *skiplist.List[[]byte, memEntry]
	seq   uint64
	l0    []*part.Segment // newest first
	lower []*part.Segment // levels[i] = L(i+1); nil slots allowed
	runNo int
	stats Stats
	getIt part.Iterator // Get's segment iterator, reused
}

// New creates an empty LSM tree stored in file.
func New(pool *buffer.Pool, file *sfile.File, opts Options) *Tree {
	t := &Tree{opts: opts.withDefaults(), pool: pool, file: file}
	t.mem = newMem()
	return t
}

func newMem() *skiplist.List[[]byte, memEntry] {
	return skiplist.New[[]byte, memEntry](bytes.Compare, func(k []byte, v memEntry) int {
		return len(k) + len(v.val) + 24
	})
}

// Stats returns a snapshot of the counters.
func (t *Tree) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// NumRuns returns the total number of on-disk runs.
func (t *Tree) NumRuns() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.l0)
	for _, s := range t.lower {
		if s != nil {
			n++
		}
	}
	return n
}

// Put stores key → val.
func (t *Tree) Put(key, val []byte) error {
	return t.write(key, memEntry{tomb: false, val: append([]byte(nil), val...)})
}

// Delete removes key (a tombstone shadows older values until compaction
// drops both at the bottom level).
func (t *Tree) Delete(key []byte) error {
	return t.write(key, memEntry{tomb: true})
}

func (t *Tree) write(key []byte, e memEntry) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	// A run's body is encodeBody's: sequence number, flags byte, value.
	if err := part.CheckEntry(len(key) + util.UvarintLen(t.seq+1) + 1 + len(e.val)); err != nil {
		return err
	}
	t.seq++
	e.seq = t.seq
	t.mem.Set(append([]byte(nil), key...), e)
	if t.mem.Bytes() < t.opts.MemtableBytes {
		return nil
	}
	return t.flushLocked()
}

// Get returns the newest value for key (nil, false when absent or
// tombstoned).
func (t *Tree) Get(key []byte) ([]byte, bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// A value found in a run lies in the tree's one iterator (runs are probed
	// one after another, under mu): it is copied before the iterator closes.
	defer t.getIt.Close()
	e, ok, err := t.newestLocked(key)
	if err != nil || !ok || e.tomb {
		return nil, false, err
	}
	return append([]byte(nil), e.val...), true, nil
}

// newestLocked finds key's newest entry, tombstones included: the memtable,
// then L0 newest first and the levels below (bloom filters skip runs).
// Requires mu.
func (t *Tree) newestLocked(key []byte) (memEntry, bool, error) {
	if e, ok := t.mem.Get(key); ok {
		return e, true, nil
	}
	it := &t.getIt
	h := bloom.HashKey(key)
	for _, level := range [...][]*part.Segment{t.l0, t.lower} {
		for _, seg := range level {
			if seg == nil {
				continue
			}
			if !seg.MayContainKey(key, h) {
				t.stats.BloomNegatives++
				continue
			}
			it.Seek(seg, key)
			if it.Err() != nil {
				return memEntry{}, false, it.Err()
			}
			if it.Valid() && bytes.Equal(it.Record().Key, key) {
				e, err := decodeBody(it.Record().Body)
				return e, err == nil, err
			}
		}
	}
	return memEntry{}, false, nil
}

// source is one input to a scan: the memtable or a run. A run's key and
// entry point into its iterator and are good until the source moves.
type source struct {
	// memtable cursor
	memIt *skiplist.Iterator[[]byte, memEntry]
	segIt *part.Iterator
}

func (s *source) valid() bool {
	if s.memIt != nil {
		return s.memIt.Valid()
	}
	return s.segIt.Valid()
}

func (s *source) key() []byte {
	if s.memIt != nil {
		return s.memIt.Key()
	}
	return s.segIt.Record().Key
}

func (s *source) entry() (memEntry, error) {
	if s.memIt != nil {
		return s.memIt.Value(), nil
	}
	return decodeBody(s.segIt.Record().Body)
}

// next moves the source on. A run that fails to read its next leaf ends,
// and its error ends the scan: the keys it did not hand out are missing.
func (s *source) next() error {
	if s.memIt != nil {
		s.memIt.Next()
		return nil
	}
	s.segIt.Next()
	return s.segIt.Err()
}

// scanMerge is a scan's sources, newest first, merged by key up to hi: a
// source at or past hi is exhausted. Among equal keys the loser tree puts
// the lowest index, the newest source, first — unless bySeq orders them by
// descending sequence number, by what each record says rather than by which
// source holds it (ScanRawAll, so that checkRawLSM compares Scan's
// rank-ordered shadowing against an order it does not share).
type scanMerge struct {
	srcs  []*source
	hi    []byte
	bySeq bool
}

func (m scanMerge) Len() int { return len(m.srcs) }
func (m scanMerge) Exhausted(i int) bool {
	s := m.srcs[i]
	return !s.valid() || m.hi != nil && bytes.Compare(s.key(), m.hi) >= 0
}
func (m scanMerge) Less(i, j int) bool {
	c := bytes.Compare(m.srcs[i].key(), m.srcs[j].key())
	if c != 0 || !m.bySeq {
		return c < 0
	}
	// A body that does not decode orders as sequence 0; ScanRawAll hands
	// every record out through entry, which fails the scan on it.
	ei, _ := m.srcs[i].entry()
	ej, _ := m.srcs[j].entry()
	return ei.seq > ej.seq
}

// Scan calls fn for every live key in [lo, hi) in key order, newest value
// per key, skipping tombstoned keys. Returning false stops.
func (t *Tree) Scan(lo, hi []byte, fn func(key, val []byte) bool) error {
	return t.ScanLimit(lo, hi, 0, fn)
}

// ScanLimit is Scan by a caller that will stop after about rows keys (0 =
// unknown): the runs' leaves are read in runs sized for that
// (part.Iterator.SeekScan), as MV-PBT's are.
func (t *Tree) ScanLimit(lo, hi []byte, rows int, fn func(key, val []byte) bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, err := t.sources(lo, hi, rows)
	if err != nil {
		return err
	}
	var merge util.LoserTree[scanMerge]
	merge.Build(m)
	for w := merge.Winner(); w >= 0; {
		// The winner is handed out before any source moves: its value lies
		// in its source's buffers.
		e, err := m.srcs[w].entry()
		if err != nil {
			return err
		}
		key := append([]byte(nil), m.srcs[w].key()...)
		if !e.tomb && !fn(key, e.val) {
			return nil
		}
		// The older sources on the key are shadowed: they win next, and
		// move on.
		for ; w >= 0 && bytes.Equal(m.srcs[w].key(), key); w = merge.Winner() {
			if err := m.srcs[w].next(); err != nil {
				return err
			}
			merge.Fix(m)
		}
	}
	return nil
}

// sources builds merge inputs positioned at lo, newest first, for a scan to
// hi expected to take rows keys (part.Iterator.SeekScan).
func (t *Tree) sources(lo, hi []byte, rows int) (scanMerge, error) {
	m := scanMerge{hi: hi}
	mit := t.mem.Seek(lo)
	m.srcs = append(m.srcs, &source{memIt: &mit})
	runs := append(append([]*part.Segment(nil), t.l0...), t.lower...)
	records := 0
	for _, seg := range runs {
		if seg != nil {
			records += seg.NumRecords
		}
	}
	for _, seg := range runs {
		if seg != nil {
			it := new(part.Iterator)
			if it.SeekScan(seg, lo, hi, rows, records); it.Err() != nil {
				return m, it.Err()
			}
			m.srcs = append(m.srcs, &source{segIt: it})
		}
	}
	return m, nil
}

// ScanRawAll streams EVERY stored record in [lo, hi) — shadowed versions
// and tombstones included — in key order, newest (highest-seq) first
// within a key. The correctness harness uses it to assert that Scan's
// newest-wins shadowing agrees with the raw record set. fn returning
// false stops.
func (t *Tree) ScanRawAll(lo, hi []byte, fn func(key []byte, seq uint64, tomb bool, val []byte) bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, err := t.sources(lo, hi, 0)
	if err != nil {
		return err
	}
	m.bySeq = true
	var merge util.LoserTree[scanMerge]
	for merge.Build(m); merge.Winner() >= 0; merge.Fix(m) {
		s := m.srcs[merge.Winner()]
		e, err := s.entry()
		if err != nil {
			return err
		}
		if !fn(append([]byte(nil), s.key()...), e.seq, e.tomb, e.val) {
			return nil
		}
		if err := s.next(); err != nil {
			return err
		}
	}
	return nil
}

// Flush builds the memtable into a run and runs every compaction then due
// (tests and the extra-wa experiment).
func (t *Tree) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.mem.Len() == 0 {
		return nil
	}
	return t.flushLocked()
}

// flushLocked builds the memtable into the newest L0 run, starts an empty
// one and runs every compaction then due. A failed build leaves the
// memtable in place, for the next write to flush again. Requires mu.
func (t *Tree) flushLocked() error {
	b := part.NewBuilder(t.pool, t.file, t.runNo, part.BuildOptions{BloomBitsPerKey: t.opts.BloomBits, Cause: ssd.CauseEvict})
	t.runNo++
	var body []byte
	for it := t.mem.Min(); it.Valid(); it.Next() {
		body = encodeBody(body[:0], it.Value())
		if err := b.Add(it.Key(), body); err != nil {
			return err
		}
	}
	seg, err := b.Finish(0, 0)
	if err != nil {
		return err
	}
	t.l0 = append([]*part.Segment{seg}, t.l0...)
	t.mem = newMem()
	t.stats.Flushes++
	return t.compactLocked()
}

// compactLocked runs every compaction due, one after another: all L0 runs
// and L1 into L1 while L0 is full, else the first lower level over its size
// target into the one below it. Requires mu.
func (t *Tree) compactLocked() error {
	for {
		src, inputs := -1, t.l0 // all of L0, or lower[src]
		if len(t.l0) < t.opts.L0Runs {
			if src = t.overfullLevel(); src < 0 {
				return nil
			}
			inputs = []*part.Segment{t.lower[src]}
		}
		dest := src + 1
		if dest < len(t.lower) && t.lower[dest] != nil {
			inputs = append(slices.Clip(inputs), t.lower[dest])
		}
		no := t.runNo
		t.runNo++
		merged, err := t.mergeRuns(inputs, t.bottomEmpty(dest), no)
		if err != nil {
			return err
		}
		if src < 0 {
			t.l0 = nil
		} else {
			t.lower[src] = nil
		}
		if dest == len(t.lower) {
			t.lower = append(t.lower, nil)
		}
		t.lower[dest] = merged // nil if everything compacted away
		t.stats.Compactions++
		for _, s := range inputs {
			s.Free()
		}
	}
}

// overfullLevel returns the index of the first lower level over its size
// target (L1's is LevelRatio memtables, each level's LevelRatio times the
// one above), or -1.
func (t *Tree) overfullLevel() int {
	target := t.opts.LevelRatio * t.opts.MemtableBytes
	for i, seg := range t.lower {
		if seg != nil && seg.SizeBytes > target {
			return i
		}
		target *= t.opts.LevelRatio
	}
	return -1
}

// bottomEmpty reports whether no run exists below level index i (tombstones
// can then be dropped).
func (t *Tree) bottomEmpty(i int) bool {
	for j := i + 1; j < len(t.lower); j++ {
		if t.lower[j] != nil {
			return false
		}
	}
	return true
}

// runMerge is a compaction's inputs, newest first, merged by key; among
// equal keys the loser tree puts the newest first.
type runMerge []*part.Reader

func (m runMerge) Len() int             { return len(m) }
func (m runMerge) Exhausted(i int) bool { return !m[i].Valid() }
func (m runMerge) Less(i, j int) bool   { return bytes.Compare(m[i].Key(), m[j].Key()) < 0 }

// mergeRuns merges runs (newest first) into run number no, newest entry
// per key winning; dropTombs drops tombstones (safe only at the bottom).
func (t *Tree) mergeRuns(runs []*part.Segment, dropTombs bool, no int) (*part.Segment, error) {
	// Streamed through the same sequential readers and builder as MV-PBT's
	// merges (Figure 15 compares the structures, not two write-out paths). A
	// reader's key and body are only valid until it advances, so the winner
	// goes to the builder (which copies) and its key is saved before any
	// source moves.
	rds := make(runMerge, len(runs))
	for i, r := range runs {
		rds[i] = r.NewReader()
		defer rds[i].Close()
	}
	b := part.NewBuilder(t.pool, t.file, no, part.BuildOptions{BloomBitsPerKey: t.opts.BloomBits, Cause: ssd.CauseMerge})
	defer b.Abort()
	var merge util.LoserTree[runMerge]
	var minKey []byte
	merge.Build(rds)
	for w := merge.Winner(); w >= 0; {
		body := rds[w].Body()
		e, err := decodeBody(body)
		if err == nil && !(dropTombs && e.tomb) {
			err = b.Add(rds[w].Key(), body)
		}
		if err != nil {
			return nil, err
		}
		minKey = append(minKey[:0], rds[w].Key()...)
		for ; w >= 0 && bytes.Equal(rds[w].Key(), minKey); w = merge.Winner() {
			rds[w].Next()
			merge.Fix(rds)
		}
	}
	for _, rd := range rds {
		if rd.Err() != nil {
			return nil, rd.Err()
		}
	}
	return b.Finish(0, 0)
}
