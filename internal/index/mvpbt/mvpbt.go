package mvpbt

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"

	"mvpbt/internal/bloom"
	"mvpbt/internal/buffer"
	"mvpbt/internal/index"
	"mvpbt/internal/index/part"
	"mvpbt/internal/sfile"
	"mvpbt/internal/skiplist"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
	"mvpbt/internal/txn"
	"mvpbt/internal/util"
)

// pnKey orders PN records by search key ascending, then write sequence
// descending: a key's records last-written first, the order partitions
// inherit and merges keep, whatever the eviction timing. On a version chain
// it is the paper's (ts desc): a predecessor is written first (DESIGN.md
// "Read path").
type pnKey struct {
	key []byte
	seq uint64
}

func cmpPNKey(a, b pnKey) int {
	if c := bytes.Compare(a.key, b.key); c != 0 {
		return c
	}
	switch {
	case a.seq > b.seq:
		return -1
	case a.seq < b.seq:
		return 1
	}
	return 0
}

// Options configures an MV-PBT.
type Options struct {
	// Name labels the index; nothing reads it (benchmarks/sut.go sets it, so
	// it goes in a benchmark-scoped PR).
	Name string
	// Unique lets point lookups stop at the first visible match (§4.2).
	Unique bool
	// BloomBits enables per-partition bloom filters (bits per key);
	// 0 disables them (Figure 14c's "no filters" configuration).
	BloomBits int
	// PrefixLen enables prefix bloom filters for range scans, over every
	// key prefix of at least PrefixLen bytes: a scan whose bounds share that
	// many leading bytes or more skips the partitions that hold no key with
	// the longest prefix they share. 0 disables them.
	PrefixLen int
	// DisableGC turns off partition garbage collection (§4.6), and with it
	// the garbage-triggered merge, for the ablations of Figures 12a/12b/14d.
	DisableGC bool
	// MaxPartitions triggers an on-line merge when the persisted partition
	// count exceeds it (0 disables this trigger, not the garbage one): of
	// the newer partitions while they are small beside the oldest, else of
	// all of them. See mergeStart.
	MaxPartitions int
}

// FilterStats counts partition-filter consultations (Figure 13).
type FilterStats struct {
	// Negatives: partitions skipped (key/range cannot be present).
	Negatives int64
	// Positives: filter said yes and the partition had a match (a scan's:
	// a record in [lo, hi) where its source was positioned).
	Positives int64
	// FalsePositives: filter said yes but the search found nothing.
	FalsePositives int64
}

// Stats aggregates index activity.
type Stats struct {
	Bloom  FilterStats
	Prefix FilterStats
	// GCMarked is always 0: readers mark nothing (DESIGN.md §7). It goes in
	// a benchmark-scoped PR, since benchmarks/sut.go reads it.
	GCMarked int64
	// GCSweptPN counts records a unique tree's insert removed from PN: the
	// key's versions no snapshot can see any more.
	GCSweptPN int64
	// GCEvict counts records removed during partition eviction (phase 3).
	GCEvict int64
	// Evictions counts partition evictions.
	Evictions int64
	// Merges counts partition reorganizations. Four things start one: the
	// count trigger (past MaxPartitions, of the newer partitions or all of
	// them), the garbage trigger (7/8 of the persisted records collectable
	// now, of all of them), the delete trigger (a unique tree's deleted keys
	// a quarter of the records a merge would keep, of all of them) and
	// reclamation (the space governor's MergePartitions, when NeedsMerge says
	// a trigger is due).
	Merges int64
}

// filterCounters is the internal atomic form of FilterStats: the read path
// bumps these without any lock.
type filterCounters struct {
	negatives      atomic.Int64
	positives      atomic.Int64
	falsePositives atomic.Int64
}

func (f *filterCounters) snapshot() FilterStats {
	return FilterStats{
		Negatives:      f.negatives.Load(),
		Positives:      f.positives.Load(),
		FalsePositives: f.falsePositives.Load(),
	}
}

// statCounters is the internal atomic form of Stats.
type statCounters struct {
	bloom     filterCounters
	prefix    filterCounters
	gcSweptPN atomic.Int64
	gcEvict   atomic.Int64
	evictions atomic.Int64
	merges    atomic.Int64
}

// treeView is the immutable snapshot the read path operates on: the
// current main-memory partition and the persisted partition list, oldest
// first, with what a merge could drop from each partition
// (partWriter.flush). Both are published TOGETHER — eviction moves records
// PN → partition, so publishing them separately would let a reader observe
// records twice or not at all.
//
// The pn inside a view is mutable in the SWMR sense: the single writer
// (under Tree.mu) keeps inserting into it until eviction replaces it;
// readers traverse it lock-free. parts is never mutated once published —
// writers publish a whole new view instead.
type treeView struct {
	pn    *skiplist.List[pnKey, *Record]
	parts []*part.Segment
	gc    []partGC // per partition
}

// partGC is what partWriter.flush counts in one partition for mergeStart:
// records a merge of every partition could drop, and a unique tree's keys
// whose first record is pure anti-matter.
type partGC struct{ dead, deleted int }

// Tree is a Multi-Version Partitioned B-Tree. Safe for concurrent use:
// readers (Lookup, Scan, ScanAllMatter, DumpKey) run in parallel against
// the current view; writers (inserts, eviction, merge) serialize on mu and
// publish new views. See DESIGN.md "Concurrency model".
type Tree struct {
	mu   sync.Mutex // serializes all mutation: PN inserts, eviction, merge
	opts Options
	pool *buffer.Pool
	file *sfile.File
	pbuf *part.PartitionBuffer
	mgr  *txn.Manager

	// view is the read-path snapshot, swapped atomically by writers.
	view atomic.Pointer[treeView]

	// bgMu serializes the reorganizations of the partition list —
	// evictions and merges. An eviction holds mu too; a merge holds bgMu
	// alone, so foreground inserts proceed while it is in flight. Lock
	// order is always bgMu before mu.
	bgMu sync.Mutex

	// gate is the grace period of everything a new view retires: every
	// reader holds the read side for its whole operation, and a writer
	// takes the write side after publishing a view and before reusing what
	// only the old one reached — a merge before freeing its inputs, an
	// eviction before recycling the evicted P_N's memory.
	gate sync.RWMutex

	pnSeq  uint64 // guarded by mu
	nextNo int    // guarded by mu
	// P_N's records and key+value copies (its skiplist has its nodes), and the
	// recordSize sum of those swept since they came, all guarded by mu.
	recs    util.Slab[Record]
	kvs     util.Slab[byte]
	pnSwept int
	stats   statCounters

	// Test-only hook (see hooks.go); nil in production.
	mergeHook atomic.Pointer[func()]
}

// New creates an empty MV-PBT storing partitions in file, registered with
// the shared partition buffer.
func New(pool *buffer.Pool, file *sfile.File, pbuf *part.PartitionBuffer, mgr *txn.Manager, opts Options) *Tree {
	t := &Tree{opts: opts, pool: pool, file: file, pbuf: pbuf, mgr: mgr}
	t.view.Store(&treeView{pn: newPN()})
	pbuf.Register(t)
	return t
}

func newPN() *skiplist.List[pnKey, *Record] {
	return skiplist.New[pnKey, *Record](cmpPNKey, func(k pnKey, v *Record) int {
		return recordSize(k.key, v)
	})
}

// PNBytes implements part.Owner.
func (t *Tree) PNBytes() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.view.Load().pn.Bytes()
}

// NeedsMerge reports whether a merge is due, by any trigger (mergeStart).
// Eviction and space reclamation both ask it.
func (t *Tree) NeedsMerge() bool {
	return t.mergeStart(t.view.Load()) >= 0
}

// mergeStart is where the merge due over v starts, -1 if none is. The count
// trigger: past MaxPartitions, from mergeFrom. The garbage trigger: at least
// 7/8 of the persisted records are records a merge of every partition would
// drop now, so that merge writes at most one record for every seven it
// drops. The delete trigger: a unique tree's deleted keys reach a quarter of
// the records that merge keeps (DESIGN.md §7). Only partitions wholly below
// the GC horizon count, so an old snapshot defers the merge.
func (t *Tree) mergeStart(v *treeView) int {
	if len(v.parts) < 2 {
		return -1
	}
	if t.opts.MaxPartitions > 0 && len(v.parts) > t.opts.MaxPartitions {
		return mergeFrom(v.parts)
	}
	horizon := uint64(t.mgr.Horizon())
	dead, deleted, all := 0, 0, 0
	for i, p := range v.parts {
		all += p.NumRecords
		if p.MaxTS < horizon {
			dead, deleted = dead+v.gc[i].dead, deleted+v.gc[i].deleted
		}
	}
	if 8*dead < 7*all && 4*deleted < all-dead-deleted {
		return -1
	}
	return 0
}

// NumPartitions returns the number of persisted partitions.
func (t *Tree) NumPartitions() int {
	return len(t.view.Load().parts)
}

// Partitions returns the persisted partition metadata, oldest first.
func (t *Tree) Partitions() []*part.Segment {
	v := t.view.Load()
	return append([]*part.Segment(nil), v.parts...)
}

// Collectable returns, in Partitions' order, how many records of each
// partition the garbage trigger counts as collectable.
func (t *Tree) Collectable() (dead []int) {
	for _, g := range t.view.Load().gc {
		dead = append(dead, g.dead)
	}
	return dead
}

// Stats returns a snapshot of the counters.
func (t *Tree) Stats() Stats {
	return Stats{
		Bloom:     t.stats.bloom.snapshot(),
		Prefix:    t.stats.prefix.snapshot(),
		GCSweptPN: t.stats.gcSweptPN.Load(),
		GCEvict:   t.stats.gcEvict.Load(),
		Evictions: t.stats.evictions.Load(),
		Merges:    t.stats.merges.Load(),
	}
}

// ---- Modification operations (§4.2): all writes go to PN only.

func (t *Tree) pnPut(key []byte, rec Record) error {
	if err := part.CheckEntry(len(key) + recordLen(&rec)); err != nil {
		return err
	}
	t.mu.Lock()
	v := t.view.Load()
	k, r := t.carve(pnKey{key: key, seq: t.pnSeq}, rec)
	t.pnSeq++
	n := v.pn.Bytes()
	v.pn.Set(k, r)
	t.pbuf.Add(v.pn.Bytes() - n)
	if t.opts.Unique && !t.opts.DisableGC {
		t.dropSupersededLocked(v, k)
	}
	t.mu.Unlock()
	return t.pbuf.MaybeEvict()
}

// carve copies k's key and rec, its inline value included (callers pass Val
// uncopied), into P_N's slabs. Called with mu held.
func (t *Tree) carve(k pnKey, rec Record) (pnKey, *Record) {
	buf := t.kvs.Alloc(len(k.key) + len(rec.Val))
	copy(buf, k.key)
	if len(rec.Val) > 0 {
		copy(buf[len(k.key):], rec.Val)
		rec.Val = buf[len(k.key):]
	}
	r := &t.recs.Alloc(1)[0]
	*r = rec
	return pnKey{key: buf[:len(k.key):len(k.key)], seq: k.seq}, r
}

// InsertRegular records a newly inserted tuple version: a regular record
// (§4.1).
func (t *Tree) InsertRegular(tx *txn.Tx, key []byte, ref index.Ref) error {
	return t.pnPut(key, Record{Type: Regular, TS: tx.ID, Ref: ref})
}

// InsertRegularVal is InsertRegular with an inline payload — MV-PBT as a
// clustered multi-version store (the WiredTiger integration of §5).
func (t *Tree) InsertRegularVal(tx *txn.Tx, key []byte, ref index.Ref, val []byte) error {
	return t.pnPut(key, Record{Type: Regular, TS: tx.ID, Ref: ref, Val: val})
}

// InsertReplacement records a non-key update: a replacement record whose
// newRef supersedes the version at oldRID (§4.1).
func (t *Tree) InsertReplacement(tx *txn.Tx, key []byte, newRef index.Ref, oldRID storage.RecordID) error {
	return t.pnPut(key, Record{Type: Replacement, TS: tx.ID, Ref: newRef, OldRID: oldRID})
}

// InsertKeyUpdate records an index-key update: an anti-record under the old
// key plus a replacement record under the new key (§4.1).
func (t *Tree) InsertKeyUpdate(tx *txn.Tx, oldKey, newKey []byte, newRef index.Ref, oldRID storage.RecordID) error {
	if err := t.pnPut(oldKey, Record{Type: Anti, TS: tx.ID, OldRID: oldRID}); err != nil {
		return err
	}
	return t.pnPut(newKey, Record{Type: Replacement, TS: tx.ID, Ref: newRef, OldRID: oldRID})
}

// InsertTombstone records a tuple deletion: a tombstone extinguishing the
// chain whose newest version is oldRID (§4.1).
func (t *Tree) InsertTombstone(tx *txn.Tx, key []byte, oldRID storage.RecordID) error {
	return t.pnPut(key, Record{Type: Tombstone, TS: tx.ID, OldRID: oldRID})
}

// newBuilder starts partition number no in the tree's file, its writes
// booked to cause.
func (t *Tree) newBuilder(no int, cause ssd.Cause) *part.Builder {
	return part.NewBuilder(t.pool, t.file, no, part.BuildOptions{
		BloomBitsPerKey: t.opts.BloomBits,
		PrefixLen:       t.opts.PrefixLen,
		Cause:           cause,
	})
}

// ---- Index-only visibility check (§4.4, Algorithm 3).

// visCheck carries the per-scan anti-matter map. Records are processed
// last-written first (pnKey), so a record's suppressor, written after it,
// is always seen before it.
//
// The map is scoped to ONE index key: anti-matter always lives under the
// same key as the record it extinguishes (replacements and tombstones by
// construction; a key update's anti-record is inserted under the OLD key,
// next to its predecessor). Range scans must call atKey on every key
// boundary — vacuum recycles heap slots, so records of different keys can
// legitimately carry the same RecordID, and an unscoped map would let one
// key's anti-matter suppress another key's matter.
type visCheck struct {
	t       *txn.Tx
	anti    map[storage.RecordID]txn.TxID
	key     []byte
	haveKey bool
}

// atKey resets the anti-matter map when the scan crosses into a new key.
func (v *visCheck) atKey(key []byte) {
	if v.haveKey && bytes.Equal(v.key, key) {
		return
	}
	v.key = append(v.key[:0], key...)
	v.haveKey = true
	if len(v.anti) > 0 {
		v.anti = make(map[storage.RecordID]txn.TxID)
	}
}

// readState is what one Lookup or Scan needs beyond its arguments, recycled
// through readPool so that a read allocates nothing in steady state: the
// visibility check with its anti-matter map and key buffer, ONE segment
// iterator for point lookups (partitions are probed one after another), and
// one merge source per scan input, whose segment iterators keep their page
// and key buffers from scan to scan.
type readState struct {
	vis     visCheck
	it      part.Iterator
	rec     Record // walk: the partition record being visited
	srcs    scanMerge
	merge   util.LoserTree[scanMerge]
	decided []byte // uniqueScan: the key whose deciding record it has passed
}

// maxKeptSources is how many scan sources keep their segment iterator's page
// buffer (8 KiB each) in a pooled readState: a scan over every partition of
// an aged tree (hundreds) must not leave megabytes behind in each pooled
// state, which the point lookups draw too.
const maxKeptSources = 128

var readPool = sync.Pool{
	New: func() any { return &readState{vis: visCheck{anti: make(map[storage.RecordID]txn.TxID)}} },
}

func (t *Tree) newReadState(tx *txn.Tx) *readState {
	rs := readPool.Get().(*readState)
	v := &rs.vis
	v.t = tx
	v.haveKey = false
	v.key = v.key[:0]
	if len(v.anti) > 0 {
		clear(v.anti)
	}
	return rs
}

// release returns rs to the pool. Everything it borrowed is dropped: Tx
// handles are themselves pooled by the txn manager and must not be retained
// past the read that borrowed them, and an iterator or a decoded record left
// standing would keep a merged-away segment or an evicted P_N alive. Closing
// the iterators is also where the lifetime of every Entry.Key and Entry.Val
// handed to the caller's callback ends (see index.Entry).
func (rs *readState) release() {
	rs.vis.t = nil
	rs.it.Close()
	rs.rec = Record{}
	for i := range rs.srcs {
		s := &rs.srcs[i]
		s.segIt.Close()
		s.pnIt, s.rec, s.key = skiplist.Iterator[pnKey, *Record]{}, Record{}, nil
	}
	if all := rs.srcs[:cap(rs.srcs)]; len(all) > maxKeptSources {
		clear(all[maxKeptSources:])
	}
	rs.srcs = rs.srcs[:0]
	readPool.Put(rs)
}

// addSource appends one merge source, reusing the struct (and its iterator's
// buffers) left there by an earlier scan. The pointer is good until the next
// addSource.
func (rs *readState) addSource() *scanSource {
	if n := len(rs.srcs); n < cap(rs.srcs) {
		rs.srcs = rs.srcs[:n+1]
	} else {
		rs.srcs = append(rs.srcs, scanSource{})
	}
	s := &rs.srcs[len(rs.srcs)-1]
	s.inPN, s.valid = false, false
	return s
}

// check classifies one record: true when it is VISIBLE to the calling
// transaction. It writes nothing but the map; a dead record waits for
// eviction's GC (phase 3, §4.6).
//
// Deviation from the paper's Algorithm 3 as printed: anti-matter is
// registered for every committed snapshot-visible record BEFORE the
// suppression test, which makes suppression transitive across chains of
// three and more versions (see DESIGN.md "Read path").
func (v *visCheck) check(rec *Record) bool {
	if !v.t.Sees(rec.TS) {
		return false
	}
	// The suppression test runs BEFORE this record's own anti-matter is
	// registered: GC inheritance can leave a record whose OldRID equals its
	// own Ref.RID (the inherited target's heap slot was recycled by this
	// very record's version) — such a record suppresses OLDER records that
	// reference the slot's previous occupant, never itself.
	visible := true
	if rec.Matter() {
		if ts, ok := v.anti[rec.Ref.RID]; ok && rec.TS <= ts {
			visible = false // superseded
		}
	}
	if rec.AntiMatter() {
		if ts, ok := v.anti[rec.OldRID]; !ok || rec.TS > ts {
			v.anti[rec.OldRID] = rec.TS
		}
	}
	if !rec.Matter() {
		return false // pure anti-matter (anti- or tombstone record)
	}
	return visible
}

// walkSrc names the source a walk is in: P_N or a persisted partition.
type walkSrc struct {
	inPN bool // P_N, not a partition
	n    int  // the partition number when !inPN
}

func (s walkSrc) String() string {
	if s.inPN {
		return "PN"
	}
	return fmt.Sprintf("P%d", s.n)
}

// partFilter selects which persisted partitions a walk enters.
type partFilter int

const (
	// filterNone: every partition (the dumps show what is there).
	filterNone partFilter = iota
	// filterRange: the partition's key-range and prefix filter, uncounted
	// (ScanAllMatter; Stats().Prefix counts Scan's merge inputs only).
	filterRange
	// filterLookup: the Minimum Transaction Timestamp filter (§4.2), then
	// the bloom filter on the key with the Stats().Bloom counters.
	filterLookup
)

// walk is the read of Algorithms 1–3 that needs no merge (DESIGN.md "Read
// path"): every record with key == lo (point) or lo <= key < hi (hi nil =
// +inf), source by source in §4.3 processing order, each in key order and a
// key's records last-written first, until visit returns false. All records
// of ONE key are met in processing order this way; a range must interleave
// its sources per key, which is Scan's k-way merge. Lock-free against other
// readers and PN inserts; it sees the view current at call time.
//
// The visited record is good until visit returns. A partition's record is
// decoded into the pooled read state — a local handed to visit by address
// would escape, one heap allocation per read — which is the caller's rs or,
// when rs is nil, drawn only if the walk reaches a partition: a read decided
// in P_N never pays for it.
func (t *Tree) walk(tx *txn.Tx, rs *readState, lo, hi []byte, point bool, filter partFilter, visit func(src walkSrc, key []byte, rec *Record) bool) error {
	t.gate.RLock()
	defer t.gate.RUnlock()
	v := t.view.Load()
	has := func(key []byte) bool {
		if point {
			return bytes.Equal(key, lo)
		}
		return index.KeyInRange(key, lo, hi)
	}
	from := pnKey{key: lo, seq: ^uint64(0)} // before every record of lo
	for it := v.pn.Seek(from); it.Valid() && has(it.Key().key); it.Next() {
		if !visit(walkSrc{inPN: true}, it.Key().key, it.Value()) {
			return nil
		}
	}
	if len(v.parts) == 0 {
		return nil
	}
	if rs == nil {
		rs = t.newReadState(tx)
		defer rs.release()
	}
	kh, rp := bloom.HashKey(lo), bloom.NewRangeProbe(lo, hi) // hashed once for every partition
	for i := len(v.parts) - 1; i >= 0; i-- {
		seg := v.parts[i]
		switch filter {
		case filterLookup:
			if segInvisible(tx, seg) {
				// Nothing in this partition can be visible — but newer
				// partitions cannot suppress older ones we still need, so
				// just skip this one.
				continue
			}
			if !seg.MayContainKey(lo, kh) {
				t.stats.bloom.negatives.Add(1)
				continue
			}
		case filterRange:
			if !seg.MayContainRange(lo, hi, rp) {
				continue
			}
		}
		found, more := false, true
		for rs.it.SeekScan(seg, lo, hi, 0, 0); rs.it.Valid(); rs.it.Next() {
			r := rs.it.Record()
			if !has(r.Key) {
				break
			}
			found = true
			var err error
			if rs.rec, err = decodeRecord(r.Body); err != nil {
				return err
			}
			if more = visit(walkSrc{n: seg.No}, r.Key, &rs.rec); !more {
				break
			}
		}
		if err := rs.it.Err(); err != nil {
			return err
		}
		if filter == filterLookup {
			if found {
				t.stats.bloom.positives.Add(1)
			} else {
				t.stats.bloom.falsePositives.Add(1)
			}
		}
		if !more {
			return nil
		}
	}
	return nil
}

// Lookup is the paper's Algorithm 1, the index-only visibility check of a
// point query (§4.4): the entries visible to tx for exactly this key, newest
// version first, PN before persisted partitions. A unique index stops at the
// record that decides the key (see unique.go).
func (t *Tree) Lookup(tx *txn.Tx, key []byte, fn func(index.Entry) bool) error {
	if t.opts.Unique {
		return t.walk(tx, nil, key, nil, true, filterLookup, func(_ walkSrc, _ []byte, rec *Record) bool {
			if !decides(tx, rec) {
				return true
			}
			if rec.Matter() {
				fn(index.Entry{Key: key, Ref: rec.Ref, Val: rec.Val})
			}
			return false
		})
	}
	rs := t.newReadState(tx)
	defer rs.release()
	vis := &rs.vis
	return t.walk(tx, rs, key, nil, true, filterLookup, func(_ walkSrc, _ []byte, rec *Record) bool {
		return !vis.check(rec) || fn(index.Entry{Key: key, Ref: rec.Ref, Val: rec.Val})
	})
}

// scanSource is one merge input: the main-memory partition or a persisted
// partition, both already in pnKey's order. key — and, for a
// segment source, rec.Val — point into the source's iterator and are good
// until the source advances.
type scanSource struct {
	inPN  bool // pnIt is the input, not segIt
	pnIt  skiplist.Iterator[pnKey, *Record]
	segIt part.Iterator
	// decoded current record for segment sources
	rec   Record
	key   []byte
	valid bool
}

// scanMerge is a scan's merge inputs in the order scanSources adds them:
// P_N, then the partitions, each newer than the next. They merge on the key
// alone, and the loser tree's tie rule — the lower index first — hands out a
// key's records source by source, in the walk's §4.3 processing order.
type scanMerge []scanSource

func (s scanMerge) Len() int             { return len(s) }
func (s scanMerge) Exhausted(i int) bool { return !s[i].valid }
func (s scanMerge) Less(i, j int) bool   { return bytes.Compare(s[i].key, s[j].key) < 0 }

func (s *scanSource) load(hi []byte) error {
	if s.inPN {
		if !s.pnIt.Valid() || !index.KeyInRange(s.pnIt.Key().key, nil, hi) {
			s.valid = false
			return nil
		}
		s.key = s.pnIt.Key().key
		s.valid = true
		return nil
	}
	if !s.segIt.Valid() {
		s.valid = false
		return s.segIt.Err()
	}
	r := s.segIt.Record()
	if !index.KeyInRange(r.Key, nil, hi) {
		s.valid = false
		return nil
	}
	rec, err := decodeRecord(r.Body)
	if err != nil {
		return err
	}
	s.rec = rec
	s.key = r.Key
	s.valid = true
	return nil
}

func (s *scanSource) record() *Record {
	if s.inPN {
		return s.pnIt.Value()
	}
	return &s.rec
}

func (s *scanSource) next(hi []byte) error {
	if s.inPN {
		s.pnIt.Next()
	} else {
		s.segIt.Next()
	}
	return s.load(hi)
}

// Scan is the paper's Algorithm 2, the range query (§4.4): the entries
// visible to tx with lo <= key < hi (hi nil = +inf), streamed in key order.
// The inputs — PN and every partition — are merged by key, a key's records
// in the §4.3 processing order Lookup meets them in, which allows early
// termination (LIMIT-style scans stop without draining the range). Unique
// indexes use the per-key decision rule instead of the anti-matter map (see
// unique.go). Lock-free against other readers and PN inserts.
func (t *Tree) Scan(tx *txn.Tx, lo, hi []byte, fn func(index.Entry) bool) error {
	return t.ScanLimit(tx, lo, hi, 0, fn)
}

// ScanLimit is Scan by a caller that will stop after about rows entries (0 =
// unknown). The scan does not stop by itself; it reads the partitions' leaves
// in runs sized for rows (part.Iterator.SeekScan).
func (t *Tree) ScanLimit(tx *txn.Tx, lo, hi []byte, rows int, fn func(index.Entry) bool) error {
	t.gate.RLock()
	defer t.gate.RUnlock()
	v := t.view.Load()
	rs := t.newReadState(tx)
	defer rs.release()
	if err := t.scanSources(rs, tx, v, lo, hi, rows); err != nil {
		return err
	}
	if t.opts.Unique {
		return t.uniqueScan(tx, rs, hi, fn)
	}
	vis := &rs.vis
	for w := rs.merge.Winner(); w >= 0; w = rs.merge.Winner() {
		s := &rs.srcs[w]
		rec := s.record()
		vis.atKey(s.key)
		if vis.check(rec) {
			if !fn(index.Entry{Key: s.key, Ref: rec.Ref, Val: rec.Val}) {
				return nil
			}
		}
		if err := s.next(hi); err != nil {
			return err
		}
		rs.merge.Fix(rs.srcs)
	}
	return nil
}

// segInvisible is the Minimum Transaction Timestamp filter (§4.2): the
// partition can be skipped when every record in it was created at or after
// the snapshot's Xmax — unless the reader's OWN id falls inside the
// partition's timestamp range, since a transaction always sees its own
// records (eviction may persist them while the transaction is still in
// progress).
func segInvisible(tx *txn.Tx, seg *part.Segment) bool {
	if seg.MinTS == 0 || txn.TxID(seg.MinTS) < tx.Snap.Xmax {
		return false
	}
	own := uint64(tx.ID)
	return own < seg.MinTS || own > seg.MaxTS
}

// scanSources builds the merge inputs for [lo, hi) over one view: the PN
// iterator plus one iterator per partition surviving the timestamp and
// range filters, all positioned at lo — into rs.srcs, counting each partition
// in Stats().Prefix once its source is positioned. rows (0 = unknown) is
// how many entries the scan is expected to take; each partition's share of
// them, by its share of the records under the scan, sizes its leaf reads.
func (t *Tree) scanSources(rs *readState, tx *txn.Tx, v *treeView, lo, hi []byte, rows int) error {
	rp := bloom.NewRangeProbe(lo, hi)
	records := 0
	if rows > 0 {
		for _, seg := range v.parts {
			if !segInvisible(tx, seg) && seg.MayContainRange(lo, hi, rp) {
				records += seg.NumRecords
			}
		}
	}
	from := pnKey{key: lo, seq: ^uint64(0)} // before every record of lo
	s := rs.addSource()
	s.inPN, s.pnIt = true, v.pn.Seek(from)
	for i := len(v.parts) - 1; i >= 0; i-- {
		seg := v.parts[i]
		if segInvisible(tx, seg) {
			continue
		}
		if !seg.MayContainRange(lo, hi, rp) {
			t.stats.prefix.negatives.Add(1)
			continue
		}
		rs.addSource().segIt.SeekScan(seg, lo, hi, rows, records)
	}
	for i := range rs.srcs {
		s := &rs.srcs[i]
		if err := s.load(hi); err != nil {
			return err
		}
		switch {
		case s.inPN: // no filter was asked
		case s.valid:
			t.stats.prefix.positives.Add(1)
		default:
			t.stats.prefix.falsePositives.Add(1)
		}
	}
	rs.merge.Build(rs.srcs)
	return nil
}

// ScanAllMatter returns every matter record in [lo, hi) WITHOUT the
// index-only visibility check — the "MV-PBT w/o idxVC" ablation of Figure
// 12a, where the caller must verify candidates against the base table.
// Entries arrive grouped by source in processing order, not merged.
func (t *Tree) ScanAllMatter(lo, hi []byte, fn func(index.Entry) bool) error {
	return t.walk(nil, nil, lo, hi, false, filterRange, func(_ walkSrc, key []byte, rec *Record) bool {
		return !rec.Matter() || fn(index.Entry{Key: key, Ref: rec.Ref})
	})
}
