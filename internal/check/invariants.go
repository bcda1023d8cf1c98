package check

import (
	"bytes"
	"fmt"
	"sort"

	"mvpbt/internal/db"
	"mvpbt/internal/index"
	"mvpbt/internal/index/mvpbt"
	"mvpbt/internal/storage"
	"mvpbt/internal/txn"
)

// engRow is one row the engine surfaced, in emission order.
type engRow struct {
	key []byte
	row []byte
	vid uint64
}

// collectRows runs a table scan/lookup result into copied engRows.
func collectRows(fn func(cb func(db.RowRef) bool) error) ([]engRow, error) {
	var out []engRow
	err := fn(func(rr db.RowRef) bool {
		out = append(out, engRow{
			key: append([]byte(nil), rr.Key...),
			row: append([]byte(nil), rr.Row...),
			vid: rr.VID,
		})
		return true
	})
	return out, err
}

// isVersionAware reports whether ix surfaces only visible entries itself
// (ordered output guaranteed); version-oblivious candidate indexes return
// an unordered set once stale entries resolve through the base table.
func isVersionAware(ix *db.Index) bool {
	return ix.MV() != nil && !ix.Def.NoIdxVC
}

// diffRows compares the engine's result against the oracle's, including
// per-row tuple identity (VID) and key-extraction agreement. Both sides
// are compared in row-byte order: the oracle sorts that way, and engine
// emission order within one key is write order (and for oblivious
// indexes arbitrary), so only the cross-key ordering — asserted separately
// in compareScan — is meaningful.
func (h *harness) diffRows(step int, opStr string, ix *db.Index, got []engRow, want []VisRow) *Violation {
	if ix.Def.Unique {
		want = UniquePerKey(keyExtract, want)
	}
	sort.Slice(got, func(i, j int) bool { return bytes.Compare(got[i].row, got[j].row) < 0 })
	if len(got) != len(want) {
		return h.viol(step, opStr, "%s: engine returned %d rows, oracle %d", ix.Def.Name, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !bytes.Equal(g.row, w.Row) {
			return h.viol(step, opStr, "%s: row %d: engine %q, oracle %q", ix.Def.Name, i, g.row, w.Row)
		}
		if !bytes.Equal(g.key, keyExtract(g.row)) {
			return h.viol(step, opStr, "%s: row %d: emitted key %q != row key %q", ix.Def.Name, i, g.key, keyExtract(g.row))
		}
		if g.vid != w.Tuple.EngineVID {
			return h.viol(step, opStr, "%s: row %q: engine VID %d, oracle VID %d", ix.Def.Name, g.row, g.vid, w.Tuple.EngineVID)
		}
	}
	return nil
}

// compareLookup checks a point lookup on ix against the oracle.
func (h *harness) compareLookup(step int, opStr string, tx *txn.Tx, ix *db.Index, key []byte) *Violation {
	got, err := collectRows(func(cb func(db.RowRef) bool) error {
		return h.tbl.Lookup(tx, ix, key, true, cb)
	})
	if err != nil {
		return h.violE(step, opStr, err, "%s lookup: %v", ix.Def.Name, err)
	}
	return h.diffRows(step, opStr, ix, got, h.ora.LookupVisible(tx.ID, key))
}

// compareScan checks a range scan on ix against the oracle. Version-aware
// indexes must additionally emit in non-decreasing key order with no
// duplicate rows.
func (h *harness) compareScan(step int, opStr string, tx *txn.Tx, ix *db.Index, lo, hi []byte) *Violation {
	got, err := collectRows(func(cb func(db.RowRef) bool) error {
		return h.tbl.Scan(tx, ix, lo, hi, true, cb)
	})
	if err != nil {
		return h.violE(step, opStr, err, "%s scan: %v", ix.Def.Name, err)
	}
	seen := make(map[string]bool, len(got))
	for i, g := range got {
		if seen[string(g.row)] {
			return h.viol(step, opStr, "%s scan: duplicate row %q", ix.Def.Name, g.row)
		}
		seen[string(g.row)] = true
		if isVersionAware(ix) && i > 0 && bytes.Compare(got[i-1].key, g.key) > 0 {
			return h.viol(step, opStr, "%s scan: keys out of order: %q after %q", ix.Def.Name, g.key, got[i-1].key)
		}
	}
	return h.diffRows(step, opStr, ix, got, h.ora.ScanVisible(tx.ID, lo, hi))
}

// audit is the full invariant sweep: every index against the oracle under
// every open snapshot (GC safety: an old snapshot must still read exactly
// its state) and a fresh one, the LSM mirror against the committed state,
// and the raw-record structural invariants of MV-PBT and LSM.
func (h *harness) audit(step int, opStr string) *Violation {
	h.res.Audits++
	lo := keyBytes(0)
	for ci, c := range h.clients {
		if c.tx == nil {
			continue
		}
		for _, ix := range h.tbl.Indexes() {
			tag := fmt.Sprintf("%s/audit c%d", opStr, ci)
			if v := h.compareScan(step, tag, c.tx, ix, lo, nil); v != nil {
				return v
			}
		}
	}
	tx, done := h.freshTx()
	defer done()
	for _, ix := range h.tbl.Indexes() {
		if v := h.compareScan(step, opStr+"/audit fresh", tx, ix, lo, nil); v != nil {
			return v
		}
	}
	if v := h.checkMirror(step, opStr); v != nil {
		return v
	}
	for _, name := range []string{"mv", "mvu"} {
		if v := h.checkRawMV(step, opStr, tx, name); v != nil {
			return v
		}
	}
	return h.checkRawLSM(step, opStr)
}

// checkMirror compares the LSM mirror's live content with the oracle's
// committed state (open transactions never touch the mirror).
func (h *harness) checkMirror(step int, opStr string) *Violation {
	got := make(map[string][]byte)
	err := h.mirror.Scan(nil, 1<<30, func(k, v []byte) bool {
		got[string(k)] = append([]byte(nil), v...)
		return true
	})
	if err != nil {
		return h.violE(step, opStr, err, "mirror scan: %v", err)
	}
	want := h.ora.CommittedRows()
	if len(got) != len(want) {
		return h.viol(step, opStr, "mirror holds %d keys, oracle committed state has %d rows", len(got), len(want))
	}
	for _, vr := range want {
		if g, ok := got[string(tidKey(vr.Tuple.ID))]; !ok {
			return h.viol(step, opStr, "mirror missing tuple %d (%q)", vr.Tuple.ID, vr.Row)
		} else if !bytes.Equal(g, vr.Row) {
			return h.viol(step, opStr, "mirror tuple %d: %q, oracle %q", vr.Tuple.ID, g, vr.Row)
		}
	}
	return nil
}

// checkRawMV asserts the MV-PBT structural invariants on index name:
//
//  1. the visible scan result is a subset of the raw MATTER records —
//     MV-PBT never fabricates an entry it does not physically hold;
//  2. within every source (PN, each partition) keys are non-decreasing,
//     and a key's records keep their processing order from audit to audit,
//     new ones first (keptOrder): no eviction, merge or sweep reorders them;
//  3. the visible scan emits each (key, rid) at most once across
//     PN and partitions (anti-matter suppression works).
//
// The visible scan runs FIRST: an eviction or merge may
// garbage-collect invisible records between the two passes but can never
// remove a record visible to the still-open tx — so a visible entry
// missing from the later dump is a genuine GC-safety violation.
func (h *harness) checkRawMV(step int, opStr string, tx *txn.Tx, name string) *Violation {
	tree := h.tbl.Index(name).MV()
	lo := keyBytes(0)
	type kr struct {
		key string
		rid storage.RecordID
	}
	var visible []kr
	seen := make(map[kr]bool)
	var vv *Violation
	err := tree.Scan(tx, lo, nil, func(e index.Entry) bool {
		p := kr{key: string(e.Key), rid: e.Ref.RID}
		if seen[p] {
			vv = h.viol(step, opStr, "%s: visible scan emitted key %q rid %v twice", name, e.Key, e.Ref.RID)
			return false
		}
		seen[p] = true
		visible = append(visible, p)
		return true
	})
	if err != nil {
		return h.violE(step, opStr, err, "%s visible scan: %v", name, err)
	}
	if vv != nil {
		return vv
	}
	matter := make(map[kr]bool)
	order := make(map[string][]string)
	var src string
	var prevKey []byte
	err = tree.DumpRange(lo, nil, func(re mvpbt.RawEntry) bool {
		if re.Source != src {
			src, prevKey = re.Source, nil
		}
		if prevKey != nil && bytes.Compare(prevKey, re.Key) > 0 {
			vv = h.viol(step, opStr, "%s %s: raw keys out of order: %q after %q", name, re.Source, re.Key, prevKey)
			return false
		}
		prevKey = append(prevKey[:0], re.Key...)
		order[string(re.Key)] = append(order[string(re.Key)], fmt.Sprint(re.Rec.TS, re.Rec.Type, re.Rec.Ref)) // not OldRID: GC inheritance rewrites it
		if re.Rec.Matter() {
			matter[kr{key: string(re.Key), rid: re.Rec.Ref.RID}] = true
		}
		return true
	})
	if err != nil {
		return h.violE(step, opStr, err, "%s raw dump: %v", name, err)
	}
	if vv != nil {
		return vv
	}
	for k, recs := range order {
		if prev := h.order[name][k]; !keptOrder(prev, recs) {
			return h.viol(step, opStr, "%s: key %q: records %v reordered since the last audit's %v", name, k, recs, prev)
		}
	}
	h.order[name] = order
	for _, p := range visible {
		if !matter[p] {
			return h.viol(step, opStr, "%s: visible entry key %q rid %v has no backing matter record (GC reclaimed a needed version?)", name, p.key, p.rid)
		}
	}
	return nil
}

// keptOrder reports whether cur, a key's records in processing order, lists
// the ones of prev (the last audit's) it kept in prev's order, after every
// new one: one cur has more copies of than prev (a writer may repeat one).
func keptOrder(prev, cur []string) bool {
	i := len(cur) - 1
	for j := len(prev) - 1; i >= 0 && j >= 0; j-- { // cur's tail as a subsequence of prev
		if prev[j] == cur[i] {
			i--
		}
	}
	n := make(map[string]int)
	for _, r := range cur {
		n[r]++
	}
	for _, r := range prev {
		n[r]--
	}
	for _, r := range cur[:i+1] {
		if n[r] <= 0 {
			return false
		}
	}
	return true
}

// checkRawLSM asserts that the LSM mirror's Scan output equals what its
// own raw record set implies: the newest (highest-seq) record per key,
// skipped when it is a tombstone.
func (h *harness) checkRawLSM(step int, opStr string) *Violation {
	tree := h.mirror.Tree()
	type newest struct {
		tomb bool
		val  []byte
	}
	top := make(map[string]newest)
	err := tree.ScanRawAll(nil, nil, func(key []byte, seq uint64, tomb bool, val []byte) bool {
		if _, ok := top[string(key)]; !ok { // emitted newest-first per key
			top[string(key)] = newest{tomb: tomb, val: append([]byte(nil), val...)}
		}
		return true
	})
	if err != nil {
		return h.violE(step, opStr, err, "lsm raw scan: %v", err)
	}
	live := 0
	for _, n := range top {
		if !n.tomb {
			live++
		}
	}
	got := make(map[string][]byte)
	err = tree.Scan(nil, nil, func(k, v []byte) bool {
		got[string(k)] = append([]byte(nil), v...)
		return true
	})
	if err != nil {
		return h.violE(step, opStr, err, "lsm scan: %v", err)
	}
	if len(got) != live {
		return h.viol(step, opStr, "lsm scan returned %d keys, raw newest-wins implies %d", len(got), live)
	}
	for k, n := range top {
		if n.tomb {
			continue
		}
		if g, ok := got[k]; !ok {
			return h.viol(step, opStr, "lsm scan missing key %x (raw newest is live)", k)
		} else if !bytes.Equal(g, n.val) {
			return h.viol(step, opStr, "lsm key %x: scan %q, raw newest %q", k, g, n.val)
		}
	}
	return nil
}
