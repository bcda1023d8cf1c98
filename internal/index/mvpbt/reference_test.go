package mvpbt

import (
	"bytes"

	"mvpbt/internal/index/part"
	"mvpbt/internal/skiplist"
	"mvpbt/internal/storage"
	"mvpbt/internal/txn"
)

// The materialising eviction and merge that the streaming partWriter
// replaced, kept verbatim (names prefixed ref) as the reference the
// equivalence tests compare against: every record of the partition decoded
// into one slice, garbage-collected over the whole slice, re-encoded into a
// second, and handed to part.Build.

// refEntry pairs a PN key with its record during eviction.
type refEntry struct {
	key pnKey
	rec *Record
}

// refEvictPN builds P_N with refBuildPartition under bgMu and mu, as
// EvictPN does, and then runs the merge mergeStart finds due, with refMerge.
func (t *Tree) refEvictPN() error {
	if err := t.refBuildPN(); err != nil {
		return err
	}
	if from := t.mergeStart(t.view.Load()); from >= 0 {
		return t.refMerge(from)
	}
	return nil
}

func (t *Tree) refBuildPN() error {
	t.bgMu.Lock()
	defer t.bgMu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.view.Load()
	if v.pn.Len() == 0 {
		return nil
	}
	no := t.nextNo
	t.nextNo++
	seg, gc, err := t.refBuildPartition(v.pn, no)
	if err != nil {
		return err
	}
	parts, gcs := v.parts, v.gc
	if seg != nil {
		parts = append(append([]*part.Segment(nil), v.parts...), seg)
		gcs = append(append([]partGC(nil), v.gc...), gc)
		t.stats.evictions.Add(1)
	}
	t.view.Store(&treeView{pn: newPN(), parts: parts, gc: gcs})
	t.pbuf.Add(-v.pn.Bytes())
	return nil
}

// refDead returns the trigger counts of a partition written from kvs, whose
// bodies encode the records GC kept. Collectable: per key, every record but
// the newest in a unique tree, plus, outside a complete merge, one for an
// oldest record that is not Regular; per anti-matter record in a non-unique
// tree one, two if it is pure anti-matter — none, in a complete merge, for
// anti-matter committed below the horizon. Deleted: in a unique tree, each
// key whose newest record is pure anti-matter — none, in a complete merge,
// whose newest record is committed below the horizon.
func (t *Tree) refDead(kvs []part.KV, complete bool) partGC {
	var gc partGC
	if t.opts.DisableGC {
		return gc
	}
	horizon := t.mgr.Horizon()
	for i := 0; i < len(kvs); {
		j := i
		var first, last Record
		for ; j < len(kvs) && bytes.Equal(kvs[j].Key, kvs[i].Key); j++ {
			rec, err := decodeRecord(kvs[j].Body)
			if err != nil {
				panic(err)
			}
			settled := complete && rec.TS < horizon && t.mgr.StatusOf(rec.TS) == txn.Committed
			if !t.opts.Unique && rec.AntiMatter() && !settled {
				gc.dead++
				if !rec.Matter() {
					gc.dead++
				}
			}
			if j == i {
				first = rec
			}
			last = rec
		}
		if t.opts.Unique {
			gc.dead += j - i - 1
			if !complete && last.Type != Regular {
				gc.dead++
			}
			settled := complete && first.TS < horizon && t.mgr.StatusOf(first.TS) == txn.Committed
			if !first.Matter() && !settled {
				gc.deleted++
			}
		}
		i = j
	}
	return gc
}

// refBuildPartition runs GC phase 3 over P_N and serializes the survivors
// into a partition. Called with bgMu and mu held: the source receives no
// inserts, readers never write a record, and txn.Manager, the segment
// builder and the stats counters are all thread-safe. Returns a nil segment
// when GC leaves nothing to persist, and the partition's refDead.
func (t *Tree) refBuildPartition(src *skiplist.List[pnKey, *Record], no int) (*part.Segment, partGC, error) {
	// Value-copy every record: P_N stays readable through the current view
	// while GC below rewrites anti-matter chains (OldRID inheritance), so
	// the mutation must happen on private copies.
	entries := make([]refEntry, 0, src.Len())
	recs := make([]Record, 0, src.Len())
	for it := src.Min(); it.Valid(); it.Next() {
		recs = append(recs, *it.Value())
		entries = append(entries, refEntry{key: it.Key(), rec: &recs[len(recs)-1]})
	}
	if !t.opts.DisableGC {
		if t.opts.Unique {
			entries = t.refUniqueEvictGC(entries, false)
		} else {
			entries = t.refEvictGC(entries)
		}
	}
	if len(entries) == 0 {
		return nil, partGC{}, nil
	}
	kvs := make([]part.KV, len(entries))
	minTS, maxTS := ^txn.TxID(0), txn.TxID(0)
	for i, e := range entries {
		kvs[i] = part.KV{Key: e.key.key, Body: encodeRecord(nil, e.rec)}
		if e.rec.TS < minTS {
			minTS = e.rec.TS
		}
		if e.rec.TS > maxTS {
			maxTS = e.rec.TS
		}
	}
	seg, err := part.Build(t.pool, t.file, no, kvs, uint64(minTS), uint64(maxTS), part.BuildOptions{
		BloomBitsPerKey: t.opts.BloomBits,
		PrefixLen:       t.opts.PrefixLen,
	})
	return seg, t.refDead(kvs, false), err
}

// refEvictGC is phase 3: chain-collapsing garbage collection over the PN
// contents. entries are in pnKey order (a key's records last-written first);
// the returned slice preserves that order.
func (t *Tree) refEvictGC(entries []refEntry) []refEntry {
	horizon := t.mgr.Horizon()
	drop := make([]bool, len(entries))

	// committedBelow reports whether the record is committed with a
	// timestamp below the horizon — i.e. visible to (or superseded for)
	// every present and future snapshot.
	committedBelow := func(rec *Record) bool {
		return rec.TS < horizon && t.mgr.StatusOf(rec.TS) == txn.Committed
	}

	// Aborted records are dropped outright.
	for i, e := range entries {
		if t.mgr.StatusOf(e.rec.TS) == txn.Aborted {
			drop[i] = true
		}
	}

	// matchAfter resolves an anti-matter record's OldRID to the entry it
	// suppresses: the first matter record after position from (entries are
	// last-written first within a key, so "after" = written earlier) under
	// entry i's key whose validated version is rid. Both scopes are
	// load-bearing: heap vacuum recycles slots, so a bare RecordID may alias
	// records of a different key, or of the same key at a different chain
	// position — a tombstone whose deleted version's slot was reused by a
	// later re-insert must not consume its own successor. Positional
	// matching is exact because slot reuse follows creation order: the
	// latest matter record written before the anti record with that rid IS
	// its predecessor (or an aborted aliased generation, which callers skip).
	matchAfter := func(from, i int, rid storage.RecordID) int {
		for k := from + 1; k < len(entries); k++ {
			if !bytes.Equal(entries[k].key.key, entries[i].key.key) {
				return -1
			}
			if entries[k].rec.Matter() && entries[k].rec.Ref.RID == rid {
				return k
			}
		}
		return -1
	}

	// Chain collapse. Only predecessors under the SAME key are collapsed:
	// a key update's replacement record must not consume the old-key chain
	// (the simultaneously inserted anti-record owns that suppression).
	for i := range entries {
		r := entries[i].rec
		if drop[i] || !r.AntiMatter() || !committedBelow(r) {
			continue
		}
		from := i
		for r.OldRID.Valid() {
			j := matchAfter(from, i, r.OldRID)
			if j < 0 {
				break
			}
			pred := entries[j].rec
			if t.mgr.StatusOf(pred.TS) == txn.Aborted {
				// An aborted record that reused the slot of the true
				// predecessor's version — a different chain generation,
				// not the suppression target. Keep scanning older entries.
				from = j
				continue
			}
			if !committedBelow(pred) {
				break
			}
			// The collapsing record inherits the predecessor's anti-matter
			// so that suppression of still older (possibly on-disk)
			// records is preserved. Inherit even when the predecessor is
			// already dropped: breaking here would leave
			// an OldRID pointing at a freed — and possibly reused — slot.
			drop[j] = true
			r.OldRID = pred.OldRID
			from = j
		}
	}

	// Pure anti-matter whose whole chain lived in PN has nothing left to
	// extinguish: the tombstone/anti record itself vanishes.
	for i := range entries {
		r := entries[i].rec
		if drop[i] {
			continue
		}
		if (r.Type == Tombstone || r.Type == Anti) && !r.OldRID.Valid() && committedBelow(r) {
			drop[i] = true
		}
	}

	out := entries[:0]
	for i := range entries {
		if drop[i] {
			t.stats.gcEvict.Add(1)
			continue
		}
		out = append(out, entries[i])
	}
	return out
}

// refUniqueEvictGC is the unique-mode phase-3 GC: per key (entries arrive in
// key asc order, a key's records in processing order) keep every record
// down to and INCLUDING the first committed-below-horizon one — the
// all-visible decider — and drop the rest. Aborted records are dropped
// anywhere. A decider that is a tombstone or anti record is kept unless the
// input is complete (a merge of every partition): otherwise it may still
// extinguish the key in older partitions.
func (t *Tree) refUniqueEvictGC(entries []refEntry, complete bool) []refEntry {
	horizon := t.mgr.Horizon()
	out := entries[:0]
	var curKey []byte
	anchored := false
	for i := range entries {
		rec := entries[i].rec
		if !bytes.Equal(entries[i].key.key, curKey) {
			curKey = entries[i].key.key
			anchored = false
		}
		switch {
		case anchored:
			t.stats.gcEvict.Add(1)
			continue
		case t.mgr.StatusOf(rec.TS) == txn.Aborted:
			t.stats.gcEvict.Add(1)
			continue
		case rec.TS < horizon && t.mgr.StatusOf(rec.TS) == txn.Committed:
			anchored = true
			if complete && !rec.Matter() {
				t.stats.gcEvict.Add(1)
				continue
			}
		}
		out = append(out, entries[i])
	}
	return out
}

// refMerge is the merge body over the persisted partitions from from on,
// with bgMu taken here. Dangling anti-matter is dropped only when from is
// 0: the merge input is then the COMPLETE persisted state, since bgMu
// guarantees that only bgMu holders append to or replace parts; records in
// PN were inserted after every persisted record.
func (t *Tree) refMerge(from int) error {
	t.bgMu.Lock()
	defer t.bgMu.Unlock()
	t.mu.Lock()
	v := t.view.Load()
	if len(v.parts)-from < 2 {
		t.mu.Unlock()
		return nil
	}
	no := t.nextNo
	t.nextNo++
	t.mu.Unlock()
	horizon := t.mgr.Horizon()
	committedBelow := func(rec *Record) bool {
		return rec.TS < horizon && t.mgr.StatusOf(rec.TS) == txn.Committed
	}

	// K-way merge by key, a key's records newer partition first.
	type src struct {
		it   *part.Iterator
		prio int
	}
	srcs := make([]*src, 0, len(v.parts)-from)
	for i := len(v.parts) - 1; i >= from; i-- {
		srcs = append(srcs, &src{it: v.parts[i].Seek(nil), prio: len(v.parts) - i})
	}
	type entry struct {
		key []byte
		rec Record
	}
	var entries []entry
	for {
		best := -1
		var bestKey []byte
		for i, s := range srcs {
			if !s.it.Valid() {
				continue
			}
			if r := s.it.Record(); best < 0 || bytes.Compare(r.Key, bestKey) < 0 {
				best, bestKey = i, r.Key
			}
		}
		if best < 0 {
			break
		}
		r := srcs[best].it.Record()
		rec, err := decodeRecord(r.Body)
		if err != nil {
			return err
		}
		// Copied: the iterator reuses the record's bytes once it moves.
		rec.Val = bytes.Clone(rec.Val)
		entries = append(entries, entry{key: bytes.Clone(r.Key), rec: rec})
		srcs[best].it.Next()
	}
	for _, s := range srcs {
		if err := s.it.Err(); err != nil {
			return err
		}
	}
	if hook := t.mergeHook.Load(); hook != nil {
		// Deterministic crash point for recovery tests: the inputs are
		// consumed but the merged partition is neither built nor installed.
		(*hook)()
	}

	var out []entry
	if t.opts.DisableGC {
		out = entries
	} else if t.opts.Unique {
		// Unique-mode key-based GC; a merge of every partition also drops
		// tombstone deciders.
		pn := make([]refEntry, len(entries))
		for i := range entries {
			pn[i] = refEntry{key: pnKey{key: entries[i].key}, rec: &entries[i].rec}
		}
		kept := t.refUniqueEvictGC(pn, from == 0)
		out = make([]entry, len(kept))
		for i := range kept {
			out[i] = entry{key: kept[i].key.key, rec: *kept[i].rec}
		}
	} else {
		// Cross-partition GC: same chain collapse as eviction, plus, in a
		// merge of every partition, removal of dangling pure anti-matter
		// (the input is the complete persisted state, so a missing target
		// cannot exist elsewhere — only PN holds strictly newer records).
		drop := make([]bool, len(entries))
		for i := range entries {
			rec := &entries[i].rec
			if t.mgr.StatusOf(rec.TS) == txn.Aborted {
				drop[i] = true
			}
		}
		// Positional predecessor resolution, exactly as in evictGC: heap
		// slot reuse means a bare RecordID may alias records of a different
		// key or a different chain position, so an anti record's target is
		// the first matter record AFTER it (= the latest written earlier,
		// entries being last-written first within a key) under the same key with that
		// rid, skipping aborted aliased generations.
		matchAfter := func(from, i int, rid storage.RecordID) int {
			for k := from + 1; k < len(entries); k++ {
				if !bytes.Equal(entries[k].key, entries[i].key) {
					return -1
				}
				if entries[k].rec.Matter() && entries[k].rec.Ref.RID == rid {
					return k
				}
			}
			return -1
		}
		for i := range entries {
			r := &entries[i].rec
			if drop[i] || !r.AntiMatter() || !committedBelow(r) {
				continue
			}
			from := i
			for r.OldRID.Valid() {
				j := matchAfter(from, i, r.OldRID)
				if j < 0 {
					break
				}
				pred := &entries[j].rec
				if t.mgr.StatusOf(pred.TS) == txn.Aborted {
					from = j // aliased generation, not the target
					continue
				}
				if !committedBelow(pred) {
					break
				}
				// Inherit even from an already-dropped predecessor: breaking
				// would leave OldRID aimed at a freed (possibly reused) slot.
				drop[j] = true
				r.OldRID = pred.OldRID
				from = j
			}
		}
		for i := range entries {
			r := &entries[i].rec
			if drop[i] || r.Matter() || !committedBelow(r) {
				continue
			}
			if !r.OldRID.Valid() {
				drop[i] = true // chain fully consumed
				continue
			}
			if from > 0 {
				continue // the target may lie in an older partition
			}
			j := matchAfter(i, i, r.OldRID)
			for j >= 0 && t.mgr.StatusOf(entries[j].rec.TS) == txn.Aborted {
				j = matchAfter(j, i, r.OldRID)
			}
			if j < 0 || drop[j] {
				drop[i] = true // dangling: the target exists nowhere
			}
		}
		out = entries[:0]
		for i := range entries {
			if drop[i] {
				t.stats.gcEvict.Add(1)
				continue
			}
			out = append(out, entries[i])
		}
	}

	var merged []*part.Segment
	var gcs []partGC
	if len(out) > 0 {
		kvs := make([]part.KV, len(out))
		minTS, maxTS := ^txn.TxID(0), txn.TxID(0)
		for i := range out {
			kvs[i] = part.KV{Key: out[i].key, Body: encodeRecord(nil, &out[i].rec)}
			if ts := out[i].rec.TS; ts < minTS {
				minTS = ts
			}
			if ts := out[i].rec.TS; ts > maxTS {
				maxTS = ts
			}
		}
		seg, err := part.Build(t.pool, t.file, no, kvs, uint64(minTS), uint64(maxTS), part.BuildOptions{
			BloomBitsPerKey: t.opts.BloomBits,
			PrefixLen:       t.opts.PrefixLen,
		})
		if err != nil {
			// Nothing was published: readers and future operations keep
			// the previous, still-intact view.
			return err
		}
		if seg != nil {
			merged, gcs = []*part.Segment{seg}, []partGC{t.refDead(kvs, from == 0)}
		}
	}
	// Install the merged partition in place of the inputs.
	t.mu.Lock()
	v2 := t.view.Load()
	parts := append(append(append([]*part.Segment(nil), v2.parts[:from]...), merged...), v2.parts[len(v.parts):]...)
	gcs = append(append(append([]partGC(nil), v2.gc[:from]...), gcs...), v2.gc[len(v.parts):]...)
	t.view.Store(&treeView{pn: v2.pn, parts: parts, gc: gcs})
	t.mu.Unlock()
	t.gate.Lock()
	t.gate.Unlock() //nolint:staticcheck // empty critical section IS the grace period
	for _, p := range v.parts[from:] {
		p.Free()
	}
	t.stats.merges.Add(1)
	return nil
}
