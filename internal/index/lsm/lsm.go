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
	"sync"

	"mvpbt/internal/bloom"
	"mvpbt/internal/buffer"
	"mvpbt/internal/index/part"
	"mvpbt/internal/sfile"
	"mvpbt/internal/skiplist"
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

// Tree is an LSM tree. Safe for concurrent use.
//
// One flush path: the write that fills the memtable freezes it onto the imm
// list (an O(1) pointer swap) and FlushPending builds the run and runs any
// due compaction under compactMu only, never holding mu across device I/O;
// reads cover mem + imm + runs throughout. The writer that filled the
// memtable calls FlushPending itself, inline (the inserting client pays).
type Tree struct {
	mu    sync.Mutex
	opts  Options
	pool  *buffer.Pool
	file  *sfile.File
	mem   *skiplist.List[[]byte, memEntry]
	imm   []*skiplist.List[[]byte, memEntry] // frozen, newest first
	seq   uint64
	l0    []*part.Segment // newest first
	lower []*part.Segment // levels[i] = L(i+1); nil slots allowed
	runNo int
	stats Stats
	getIt part.Iterator // Get's segment iterator, reused; guarded by mu

	// compactMu serializes run builds and compactions (FlushPending,
	// Close) without holding mu across the merge I/O.
	compactMu sync.Mutex
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
	t.seq++
	e.seq = t.seq
	t.mem.Set(append([]byte(nil), key...), e)
	if t.mem.Bytes() < t.opts.MemtableBytes {
		t.mu.Unlock()
		return nil
	}
	t.freezeLocked()
	t.mu.Unlock()
	return t.FlushPending()
}

// freezeLocked moves the memtable onto the imm list, newest first, and
// starts an empty one. Requires mu.
func (t *Tree) freezeLocked() {
	t.imm = append([]*skiplist.List[[]byte, memEntry]{t.mem}, t.imm...)
	t.mem = newMem()
}

// PendingMemtables returns the number of frozen memtables awaiting flush.
func (t *Tree) PendingMemtables() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.imm)
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
// the frozen memtables newest first, then L0 newest first and the levels
// below (bloom filters skip runs). Requires mu.
func (t *Tree) newestLocked(key []byte) (memEntry, bool, error) {
	for i := -1; i < len(t.imm); i++ {
		m := t.mem
		if i >= 0 {
			m = t.imm[i]
		}
		if e, ok := m.Get(key); ok {
			return e, true, nil
		}
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
	for _, im := range t.imm {
		iit := im.Seek(lo)
		m.srcs = append(m.srcs, &source{memIt: &iit})
	}
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

// Flush forces everything in memory out (tests and shutdown): it freezes
// the current memtable and drains the whole pipeline via FlushPending.
func (t *Tree) Flush() error {
	t.mu.Lock()
	if t.mem.Len() > 0 {
		t.freezeLocked()
	}
	t.mu.Unlock()
	return t.FlushPending()
}

// Close flushes all in-memory state to disk.
func (t *Tree) Close() error {
	return t.Flush()
}

// buildRun serializes one memtable into run number no. Called WITHOUT mu:
// the source is frozen (no further inserts) and the builder touches only
// thread-safe state (pool, file).
func (t *Tree) buildRun(mem *skiplist.List[[]byte, memEntry], no int) (*part.Segment, error) {
	b := part.NewBuilder(t.pool, t.file, no, part.BuildOptions{BloomBitsPerKey: t.opts.BloomBits})
	var body []byte
	for it := mem.Min(); it.Valid(); it.Next() {
		body = encodeBody(body[:0], it.Value())
		if err := b.Add(it.Key(), body); err != nil {
			return nil, err
		}
	}
	return b.Finish(0, 0)
}

// FlushPending builds runs for all frozen memtables, oldest first, then
// runs any due compactions — the flush job. Serialized by
// compactMu; mu is held only to pick sources and install results, never
// across the build I/O.
func (t *Tree) FlushPending() error {
	t.compactMu.Lock()
	defer t.compactMu.Unlock()
	for {
		t.mu.Lock()
		if len(t.imm) == 0 {
			t.mu.Unlock()
			break
		}
		src := t.imm[len(t.imm)-1] // oldest; write() prepends
		no := t.runNo
		t.runNo++
		t.mu.Unlock()

		seg, err := t.buildRun(src, no)
		if err != nil {
			return err
		}
		t.mu.Lock()
		t.l0 = append([]*part.Segment{seg}, t.l0...)
		t.imm = t.imm[:len(t.imm)-1]
		t.stats.Flushes++
		t.mu.Unlock()
	}
	return t.compactPending()
}

// compactPending loops plan → merge → install until no level is over
// threshold. Called with compactMu held; the merge I/O runs outside mu.
func (t *Tree) compactPending() error {
	for {
		t.mu.Lock()
		inputs, srcLevel, dropTombs, no, ok := t.planCompactionLocked()
		t.mu.Unlock()
		if !ok {
			return nil
		}
		merged, err := t.mergeRuns(inputs, dropTombs, no)
		if err != nil {
			return err
		}
		t.mu.Lock()
		t.installCompactionLocked(inputs, srcLevel, merged)
		t.mu.Unlock()
		for _, s := range inputs {
			s.Free()
		}
	}
}

// planCompactionLocked picks the next due compaction: all L0 runs into L1
// when L0 is full (srcLevel -1), else the first oversized lower level
// into the one below it (srcLevel i). Allocates the output run number.
// Requires mu.
func (t *Tree) planCompactionLocked() (inputs []*part.Segment, srcLevel int, dropTombs bool, no int, ok bool) {
	if len(t.l0) >= t.opts.L0Runs {
		inputs = append([]*part.Segment{}, t.l0...)
		if len(t.lower) > 0 && t.lower[0] != nil {
			inputs = append(inputs, t.lower[0])
		}
		no = t.runNo
		t.runNo++
		return inputs, -1, t.bottomEmpty(0), no, true
	}
	target := t.opts.LevelRatio * t.opts.MemtableBytes
	for i := 0; i < len(t.lower); i++ {
		if t.lower[i] == nil || t.lower[i].SizeBytes <= target {
			target *= t.opts.LevelRatio
			continue
		}
		inputs = []*part.Segment{t.lower[i]}
		if i+1 < len(t.lower) && t.lower[i+1] != nil {
			inputs = append(inputs, t.lower[i+1])
		}
		no = t.runNo
		t.runNo++
		return inputs, i, t.bottomEmpty(i + 1), no, true
	}
	return nil, 0, false, 0, false
}

// installCompactionLocked swaps the merged run in for its inputs.
// merged may be nil (everything compacted away). Requires mu.
func (t *Tree) installCompactionLocked(inputs []*part.Segment, srcLevel int, merged *part.Segment) {
	dest := 0
	if srcLevel < 0 {
		// Remove exactly the consumed runs; another writer's flush cannot
		// have prepended new ones (compactMu), but filter defensively.
		consumed := make(map[*part.Segment]bool, len(inputs))
		for _, s := range inputs {
			consumed[s] = true
		}
		var keep []*part.Segment
		for _, s := range t.l0 {
			if !consumed[s] {
				keep = append(keep, s)
			}
		}
		t.l0 = keep
	} else {
		t.lower[srcLevel] = nil
		dest = srcLevel + 1
	}
	for len(t.lower) <= dest {
		t.lower = append(t.lower, nil)
	}
	t.lower[dest] = merged
	t.stats.Compactions++
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
// Touches no locked state: called without mu.
func (t *Tree) mergeRuns(runs []*part.Segment, dropTombs bool, no int) (*part.Segment, error) {
	// Streamed through the same sequential readers and builder as MV-PBT's
	// merges (Figure 15 compares the structures, not two write-out paths). A
	// reader's key and body are only valid until it advances, so the winner
	// goes to the builder (which copies) and its key is saved before any
	// source moves.
	rds := make(runMerge, len(runs))
	for i, r := range runs {
		rds[i] = r.NewReader()
	}
	b := part.NewBuilder(t.pool, t.file, no, part.BuildOptions{BloomBitsPerKey: t.opts.BloomBits})
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
