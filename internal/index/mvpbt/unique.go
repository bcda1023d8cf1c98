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
// alike: the first record of a key, in processing order, that is not
// flagged garbage and whose transaction tx sees decides the key.
func decides(tx *txn.Tx, rec *Record) bool {
	return !rec.GCMarked() && tx.Sees(rec.TS)
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

// uniqueGC is the unique-mode phase-3 GC for the records of one key, in
// processing order: keep every record down to and INCLUDING the first
// committed-below-horizon one — every reader decides there or before, the
// order being the same for all — and drop the rest. Aborted and flagged
// records are dropped anywhere. A tombstone or anti decider may still
// extinguish the key in older partitions, so only a complete merge drops it;
// the key's records in P_N were written later and come first anyway.
func (w *partWriter) uniqueGC() {
	anchored := false
	for i := range w.recs {
		r := &w.recs[i].rec
		switch {
		case anchored, r.GCMarked(), w.t.mgr.StatusOf(r.TS) == txn.Aborted:
			w.recs[i].drop = true
		case w.committedBelow(r):
			anchored = true
			w.recs[i].drop = w.complete && !r.Matter()
		}
	}
}
