package mvpbt

import (
	"bytes"

	"mvpbt/internal/index"
	"mvpbt/internal/txn"
)

// Unique-index visibility: with at most one live tuple per key, the FIRST
// record in processing order whose transaction the caller sees decides the
// key — a visible matter record yields the key's current version, a visible
// tombstone (or anti-record) means the key is absent, and everything after
// it is superseded without inspecting anti-matter at all. This enables
// BLIND writes (replacements and tombstones without predecessor
// recordIDs), which is how the KV integration of §5 achieves LSM-like
// write behaviour: updates just hit PN.
//
// Correctness rests on one order: a key's records last-written first (P_N,
// then the partitions newest first, §4.3; pnKey inside each), which every
// read, eviction and merge meets them in, whatever the eviction timing.

// decides is the unique-index decision rule, for the point path (Lookup's
// visitor, which stops the walk there) and the range path (uniqueScan)
// alike: the first record of a key, in processing order, whose transaction
// tx sees decides the key.
func decides(tx *txn.Tx, rec *Record) bool {
	return tx.Sees(rec.TS)
}

// uniqueScan is the range-scan path for unique indexes: the merged stream
// with per-key decisions; once a key is decided
// its remaining records are skipped without visibility checks. Runs
// lock-free over the merge inputs scanSources positioned in rs.
func (t *Tree) uniqueScan(tx *txn.Tx, rs *readState, hi []byte, fn func(index.Entry) bool) error {
	haveDecided := false
	for w := rs.merge.Winner(); w >= 0; w = rs.merge.Winner() {
		s := &rs.srcs[w]
		if !haveDecided || !bytes.Equal(s.key, rs.decided) {
			if rec := s.record(); decides(tx, rec) {
				rs.decided = append(rs.decided[:0], s.key...)
				haveDecided = true
				if rec.Matter() {
					if !fn(index.Entry{Key: s.key, Ref: rec.Ref, Val: rec.Val}) {
						return nil
					}
				}
			}
		}
		if err := s.next(hi); err != nil {
			return err
		}
		rs.merge.Fix(rs.srcs)
	}
	return nil
}

// uniqueDrop is the unique-tree GC rule (§4.6), fed one key's records in
// processing order: keep every record down to and INCLUDING the first one
// committed below horizon, the anchor — every reader decides there or before,
// the order being the same for all — and drop the rest. Aborted records are
// dropped anywhere. *anchored turns true at the anchor.
func (t *Tree) uniqueDrop(r *Record, horizon txn.TxID, anchored *bool) bool {
	if *anchored {
		return true
	}
	st := t.mgr.StatusOf(r.TS)
	*anchored = r.TS < horizon && st == txn.Committed
	return st == txn.Aborted
}

// uniqueGC is the unique-mode phase-3 GC for the records of one key. A
// tombstone or anti anchor may still extinguish the key in older partitions,
// so only a complete merge drops it; the key's records in P_N were written
// later and come first anyway.
func (w *partWriter) uniqueGC() {
	anchored := false
	for i := range w.recs {
		r := &w.recs[i].rec
		w.recs[i].drop = w.t.uniqueDrop(r, w.horizon, &anchored) || anchored && w.complete && !r.Matter()
	}
}

// dropSupersededLocked is a unique tree's P_N GC, run by the insert of k
// under mu: the key's older records, which follow k in P_N, go by uniqueDrop,
// so a key overwritten with no old snapshot open keeps its new record and
// the anchor. Readers need no record past the anchor; deleting from the SWMR
// skiplist is safe against them, and one parked on a removed record walks on
// from it into the surviving suffix.
func (t *Tree) dropSupersededLocked(v *treeView, k pnKey) {
	n, dropped, anchored, horizon := v.pn.Bytes(), 0, false, t.mgr.Horizon()
	for it := v.pn.Seek(pnKey{key: k.key, seq: k.seq - 1}); it.Valid() && bytes.Equal(it.Key().key, k.key); it.Next() {
		if t.uniqueDrop(it.Value(), horizon, &anchored) {
			v.pn.Delete(it.Key())
			dropped++
		}
	}
	if dropped > 0 {
		t.sweptLocked(v, n-v.pn.Bytes(), dropped)
	}
}
