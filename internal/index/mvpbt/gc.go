package mvpbt

import (
	"bytes"
	"fmt"
	"iter"

	"mvpbt/internal/index"
	"mvpbt/internal/index/part"
	"mvpbt/internal/skiplist"
	"mvpbt/internal/storage"
	"mvpbt/internal/txn"
	"mvpbt/internal/util"
)

// sweepPNLocked is garbage-collection phase 2 (§4.6) of a non-unique tree:
// remove the records that scans flagged (phase 1) from the main-memory
// partition, reclaiming space before the next insert. Called with t.mu held
// when the garbage ratio crosses the threshold. Deleting from the SWMR
// skiplist is safe against concurrent readers; a reader parked on a removed
// node continues into the surviving suffix. (A unique tree collects at
// insert instead: dropSupersededLocked.)
func (t *Tree) sweepPNLocked(v *treeView) {
	var victims []pnKey
	for it := v.pn.Min(); it.Valid(); it.Next() {
		if it.Value().GCMarked() {
			victims = append(victims, it.Key())
		}
	}
	n := v.pn.Bytes()
	for _, k := range victims {
		v.pn.Delete(k)
	}
	t.sweptLocked(v, n-v.pn.Bytes(), len(victims))
	t.pnGarbage.Store(0)
}

// sweptLocked accounts the n bytes of records a phase-2 pass just removed
// from v's P_N: they go back to the partition buffer. Removed records stay in
// P_N's slabs until an eviction recycles them; once they outweigh both the
// live ones and pnCopyFloor, the live are copied to fresh slabs under a new
// view and the old P_N left to the Go GC. Called with t.mu held.
func (t *Tree) sweptLocked(v *treeView, n, records int) {
	t.pbuf.Add(-n)
	t.stats.gcSweptPN.Add(int64(records))
	if t.pnSwept += n; t.pnSwept > max(v.pn.Bytes(), pnCopyFloor) {
		nv := &treeView{pn: newPN(), parts: v.parts, gc: v.gc}
		t.recs, t.kvs, t.pnSwept = util.Slab[Record]{}, util.Slab[byte]{}, 0
		for it := v.pn.Min(); it.Valid(); it.Next() {
			nv.pn.Set(t.carve(it.Key(), it.Value().snapshot()))
		}
		t.view.Store(nv)
	}
}

// pnCopyFloor keeps a small P_N that overwrites keep small (a TPC-C
// warehouse's) from being copied out every few inserts.
const pnCopyFloor = 64 << 10

// SweepPN runs garbage-collection phase 2 on demand (the space
// governor's reclaim pass; inserts sweep by themselves once the PN garbage
// ratio trips).
func (t *Tree) SweepPN() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sweepPNLocked(t.view.Load())
	return nil
}

// EvictPN implements part.Owner — the partition eviction of Algorithm 4,
// run inline by the writer whose insert filled the partition buffer. Under
// bgMu and mu, P_N's version chains are analysed and obsolete records
// garbage collected (phase 3 of §4.6): a record superseded below the GC
// horizon by a committed successor of the same key is invisible to every
// present and future snapshot and is dropped, with its anti-matter
// inherited by the successor; aborted and flagged records are dropped;
// anti and tombstone records whose whole chain lived in P_N vanish
// entirely. The survivors are dense-packed into leaf pages with prefix
// truncation, internal levels are built bottom-up, all pages are written
// out strictly sequentially, and bloom/prefix-bloom filters are computed
// from the same pass. One view then swaps P_N for a fresh one and the new
// partition, so a reader sees the records either in P_N (old view) or in
// the partition (new view) — never both or neither. A failed build
// publishes nothing: P_N stays, and the next eviction retries it whole.
//
// Readers never take mu and proceed throughout. Under bgMu alone, the
// eviction then waits them out to recycle P_N's memory, and a due merge
// (mergeStart) runs inline, so inserts go on into the fresh P_N meanwhile.
func (t *Tree) EvictPN() error {
	t.bgMu.Lock()
	defer t.bgMu.Unlock()
	t.mu.Lock()
	v := t.view.Load()
	if v.pn.Len() > 0 {
		no := t.nextNo
		t.nextNo++
		seg, gc, err := t.buildPartition(v.pn, no)
		if err != nil {
			t.mu.Unlock()
			return err
		}
		nv := &treeView{pn: newPN(), parts: v.parts, gc: v.gc}
		if seg != nil {
			nv.parts = append(v.parts[:len(v.parts):len(v.parts)], seg)
			nv.gc = append(v.gc[:len(v.gc):len(v.gc)], gc)
			t.stats.evictions.Add(1)
		}
		t.view.Store(nv)
		t.pbuf.Add(-v.pn.Bytes())
		t.pnGarbage.Store(0)
		evicted, recs, kvs := v.pn, t.recs, t.kvs
		t.recs, t.kvs, t.pnSwept = util.Slab[Record]{}, util.Slab[byte]{}, 0
		t.mu.Unlock()
		t.waitReaders() // then the evicted P_N's memory is the current P_N's
		t.mu.Lock()
		v = t.view.Load() // nv, or a sweep's copy of it
		v.pn.Recycle(evicted)
		t.recs.Recycle(&recs)
		t.kvs.Recycle(&kvs)
	}
	from := t.mergeStart(v)
	t.mu.Unlock()
	if from < 0 {
		return nil
	}
	return t.mergeBG(from)
}

// buildPartition runs GC phase 3 over P_N and serializes the survivors into
// a partition. Called with bgMu and mu held: src receives no inserts, record
// flags are read via snapshot copies, and txn.Manager, the segment builder
// and the stats counters are all thread-safe. Returns a nil segment when GC
// leaves nothing to persist, and the partition's counts for the merge
// triggers.
func (t *Tree) buildPartition(src *skiplist.List[pnKey, *Record], no int) (*part.Segment, partGC, error) {
	w := t.newPartWriter(no, false)
	defer w.b.Abort()
	for it := src.Min(); it.Valid(); it.Next() {
		// Value-copy every record: P_N stays readable through the current
		// view while GC rewrites anti-matter chains (OldRID inheritance),
		// so the mutation must happen on private copies.
		if err := w.add(it.Key().key, it.Value().snapshot(), nil); err != nil {
			return nil, partGC{}, err
		}
	}
	return w.finish()
}

// Load bulk-builds an empty tree's one partition (§4.5) from rows, keys
// strictly ascending: regular records of tx, versions named by ref. It is
// how recovery writes a store it holds in key order, each leaf once and in
// order, instead of through P_N, evictions and merges. A failed build
// publishes nothing.
func (t *Tree) Load(tx *txn.Tx, rows iter.Seq2[[]byte, []byte], ref func() index.Ref) error {
	t.bgMu.Lock()
	defer t.bgMu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.view.Load()
	if v.pn.Len() > 0 || len(v.parts) > 0 {
		return fmt.Errorf("mvpbt: Load into the non-empty tree %q", t.opts.Name)
	}
	w := t.newPartWriter(t.nextNo, true)
	defer w.b.Abort()
	for key, val := range rows {
		if err := w.add(key, Record{Type: Regular, TS: tx.ID, Ref: ref(), Val: val}, nil); err != nil {
			return err
		}
	}
	seg, gc, err := w.finish()
	if err != nil || seg == nil {
		return err
	}
	t.nextNo++
	t.view.Store(&treeView{pn: v.pn, parts: []*part.Segment{seg}, gc: []partGC{gc}})
	return nil
}

// partWriter is the one path by which records become a persisted
// partition: evictions feed it P_N, merges the k-way merge of their
// inputs, both in §4.3 processing order. Every GC rule looks only within
// one key, so it holds the records of ONE key, collects their garbage when
// the next key arrives, and streams the survivors into the segment builder
// (DESIGN.md §7).
type partWriter struct {
	t       *Tree
	b       *part.Builder
	horizon txn.TxID
	// complete: the input is the complete persisted state (a merge of every
	// partition), so a missing anti-matter target exists nowhere.
	complete bool

	key   []byte     // the current key (a copy)
	recs  []groupRec // its records, in processing order
	arena []byte     // backs the bodies (and through them the Vals) in recs
	enc   []byte

	minTS, maxTS txn.TxID
	gc           partGC // the counts for the merge triggers (flush)
}

// groupRec is one record of the current key. body is its encoding as read
// from a merge input, passed through to the output; nil (an eviction, or a
// record GC rewrote) means encode rec.
type groupRec struct {
	rec  Record
	body []byte
	drop bool
}

func (t *Tree) newPartWriter(no int, complete bool) *partWriter {
	return &partWriter{t: t, b: t.newBuilder(no), horizon: t.mgr.Horizon(), complete: complete, minTS: ^txn.TxID(0)}
}

// add takes the next record in order; body is its encoding if the caller
// has it. key, body and rec.Val may be recycled once add returns — except a
// Val handed over without a body, which must stay valid until the next key.
func (w *partWriter) add(key []byte, rec Record, body []byte) error {
	if len(w.recs) > 0 && !bytes.Equal(key, w.key) {
		if err := w.flush(); err != nil {
			return err
		}
	}
	if len(w.recs) == 0 {
		w.key = append(w.key[:0], key...)
	}
	if body != nil {
		// Appending may move the arena; slices into its old backing array
		// stay intact, since the arena is only reset between keys.
		off := len(w.arena)
		w.arena = append(w.arena, body...)
		body = w.arena[off:len(w.arena):len(w.arena)]
		if rec.Val != nil {
			rec.Val = body[len(body)-len(rec.Val):] // the encoding ends with Val
		}
	}
	w.recs = append(w.recs, groupRec{rec: rec, body: body})
	return nil
}

// flush garbage-collects the current key's records, hands the survivors to
// the builder and adds to the partition's estimate of the records a later
// merge of every partition could drop, once the partition is below the
// horizon. In a unique tree that is every survivor but the first, plus,
// outside a complete merge, the older version the oldest survivor replaces,
// if any. In a non-unique tree each survivor's anti-matter target, and a
// pure anti-matter survivor itself — except, in a complete merge, anti-matter
// committed below the horizon, whose target is not under this key (a key
// update's replacement): no merge will collapse it. Deleted: unique keys whose
// first survivor is pure anti-matter.
func (w *partWriter) flush() error {
	gc := !w.t.opts.DisableGC
	if gc {
		if w.t.opts.Unique {
			w.uniqueGC()
		} else {
			w.chainGC()
		}
	}
	kept, oldest := 0, RecType(0)
	for i := range w.recs {
		g := &w.recs[i]
		if g.drop {
			w.t.stats.gcEvict.Add(1)
			continue
		}
		if kept == 0 && gc && w.t.opts.Unique && !g.rec.Matter() {
			w.gc.deleted++
		}
		kept, oldest = kept+1, g.rec.Type
		if gc && !w.t.opts.Unique && g.rec.AntiMatter() && !(w.complete && w.committedBelow(&g.rec)) {
			w.gc.dead++
			if !g.rec.Matter() {
				w.gc.dead++
			}
		}
		if g.body == nil {
			w.enc = encodeRecord(w.enc[:0], &g.rec)
			g.body = w.enc
		}
		if err := w.b.Add(w.key, g.body); err != nil {
			return err
		}
		w.minTS, w.maxTS = min(w.minTS, g.rec.TS), max(w.maxTS, g.rec.TS)
	}
	if gc && w.t.opts.Unique && kept > 0 {
		w.gc.dead += kept - 1
		if !w.complete && oldest != Regular {
			w.gc.dead++
		}
	}
	w.recs, w.arena = w.recs[:0], w.arena[:0]
	return nil
}

// finish completes the partition and returns it with its counts.
func (w *partWriter) finish() (*part.Segment, partGC, error) {
	if err := w.flush(); err != nil {
		return nil, partGC{}, err
	}
	seg, err := w.b.Finish(uint64(w.minTS), uint64(w.maxTS))
	return seg, w.gc, err
}

// committedBelow reports whether the record is committed with a timestamp
// below the horizon — i.e. visible to (or superseded for) every present and
// future snapshot.
func (w *partWriter) committedBelow(r *Record) bool {
	return r.TS < w.horizon && w.t.mgr.StatusOf(r.TS) == txn.Committed
}

// chainGC is phase 3 for the records of one key, in processing order: the
// chain-collapsing garbage collection of partition eviction, and — when the
// input is the complete persisted state — the removal of dangling pure
// anti-matter on top.
func (w *partWriter) chainGC() {
	recs, mgr := w.recs, w.t.mgr

	// Aborted and phase-1-flagged records are dropped outright.
	for i := range recs {
		if r := &recs[i].rec; r.GCMarked() || mgr.StatusOf(r.TS) == txn.Aborted {
			recs[i].drop = true
		}
	}

	// matchAfter resolves an anti-matter record's OldRID to the record it
	// suppresses: the first matter record after position from (records are
	// last-written first, so "after" = written earlier) whose validated
	// version is rid. Both scopes — this key, this position onward — are
	// load-bearing: heap vacuum recycles slots, so a bare RecordID may alias
	// records of another key, or of this key at another chain position — a
	// re-insert into the slot of a tombstone's deleted version was written
	// after the tombstone, so it comes before it and is never its target.
	// Exact, because slot reuse follows creation order: the latest record
	// written before with that rid IS the predecessor (or an aborted alias).
	matchAfter := func(from int, rid storage.RecordID) int {
		for k := from + 1; k < len(recs); k++ {
			if r := &recs[k].rec; r.Matter() && r.Ref.RID == rid {
				return k
			}
		}
		return -1
	}

	// Chain collapse. Only predecessors under the SAME key are collapsed:
	// a key update's replacement record must not consume the old-key chain
	// (the simultaneously inserted anti-record owns that suppression).
	for i := range recs {
		r := &recs[i].rec
		if recs[i].drop || !r.AntiMatter() || !w.committedBelow(r) {
			continue
		}
		from := i
		for r.OldRID.Valid() {
			j := matchAfter(from, r.OldRID)
			if j < 0 {
				break
			}
			pred := &recs[j].rec
			if mgr.StatusOf(pred.TS) == txn.Aborted {
				// An aborted record that reused the slot of the true
				// predecessor's version — a different chain generation,
				// not the suppression target. Keep scanning older records.
				from = j
				continue
			}
			if !w.committedBelow(pred) {
				break
			}
			// The collapsing record inherits the predecessor's anti-matter
			// so that suppression of still older (possibly on-disk)
			// records is preserved. Inherit even when the predecessor is
			// already dropped (phase-1 flagged): breaking here would leave
			// an OldRID pointing at a freed — and possibly reused — slot.
			recs[j].drop = true
			r.OldRID = pred.OldRID
			recs[i].body = nil // rewritten: the encoding as read is stale
			from = j
		}
	}

	// Pure anti-matter with nothing left to extinguish vanishes: its whole
	// chain was consumed above or, in a merge, its target exists nowhere.
	for i := range recs {
		r := &recs[i].rec
		if recs[i].drop || r.Matter() || !w.committedBelow(r) {
			continue
		}
		if !r.OldRID.Valid() {
			recs[i].drop = true
			continue
		}
		if !w.complete {
			continue // the target may be in an older partition
		}
		j := matchAfter(i, r.OldRID)
		for j >= 0 && mgr.StatusOf(recs[j].rec.TS) == txn.Aborted {
			j = matchAfter(j, r.OldRID)
		}
		if j < 0 || recs[j].drop {
			recs[i].drop = true
		}
	}
}
