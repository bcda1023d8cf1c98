package mvpbt

import (
	"fmt"

	"mvpbt/internal/index"
	"mvpbt/internal/skiplist"
	"mvpbt/internal/txn"
)

// Raw-record enumeration and test-only mutation hooks for the differential
// correctness harness (internal/check). DumpRange exposes every physical
// index record so the harness can assert the structural invariants —
// per-source key ordering, ts-descending within a key, and that the
// visible result set is a subset of the raw matter records. The fault
// hook lets the harness verify its own teeth: a deliberately corrupted
// visibility decision must be caught and shrunk to a minimal history.

// RawEntry is one physical index record as stored, with its source. Key and
// Rec.Val follow index.Entry's lifetime rule: good until the callback
// returns.
type RawEntry struct {
	// Source is "PN" for the main-memory partition, "F<i>" for frozen
	// (eviction-pending) PNs newest first, and "P<no>" for persisted
	// partitions, newest first — the §4.3 processing order.
	Source string
	Key    []byte
	Rec    Record
}

// DumpRange streams every index record with lo <= key < hi (hi nil =
// +inf), source by source in processing order (PN, frozen PNs newest
// first, partitions newest to oldest), each source in its internal
// (key asc, ts desc, seq desc) order. No visibility filtering and no GC
// side effects; fn returning false stops. Safe to run concurrently with
// readers and writers — it sees the view current at call time.
func (t *Tree) DumpRange(lo, hi []byte, fn func(RawEntry) bool) error {
	t.gate.RLock()
	defer t.gate.RUnlock()
	v := t.view.Load()
	rs := t.newReadState(nil)
	defer rs.release()
	segIt := &rs.it
	dumpPN := func(src string, pn *skiplist.List[pnKey, *Record]) bool {
		for it := pn.Seek(pnKey{key: lo, ts: ^txn.TxID(0), seq: ^uint64(0)}); it.Valid(); it.Next() {
			if !index.KeyInRange(it.Key().key, lo, hi) {
				break
			}
			if !fn(RawEntry{Source: src, Key: it.Key().key, Rec: it.Value().snapshot()}) {
				return false
			}
		}
		return true
	}
	if !dumpPN("PN", v.pn) {
		return nil
	}
	for fi, fz := range v.frozen {
		if !dumpPN(fmt.Sprintf("F%d", fi), fz) {
			return nil
		}
	}
	for i := len(v.parts) - 1; i >= 0; i-- {
		seg := v.parts[i]
		src := fmt.Sprintf("P%d", seg.No)
		for segIt.Seek(seg, lo); segIt.Valid(); segIt.Next() {
			r := segIt.Record()
			if !index.KeyInRange(r.Key, lo, hi) {
				break
			}
			rec, err := decodeRecord(r.Body)
			if err != nil {
				return err
			}
			if !fn(RawEntry{Source: src, Key: r.Key, Rec: rec}) {
				return nil
			}
		}
		if err := segIt.Err(); err != nil {
			return err
		}
	}
	return nil
}

// VisFaultFn post-processes an index-only visibility decision: it receives
// the record's timestamp and the correct answer and returns the answer to
// use instead.
type VisFaultFn func(ts txn.TxID, visible bool) bool

// SetVisibilityFaultForTest installs (or, with nil, removes) a test-only
// mutation hook over the index-only visibility check. The harness's
// self-test uses it to seed a visibility bug and assert the differential
// checkers catch it. Never set outside tests.
func (t *Tree) SetVisibilityFaultForTest(fn VisFaultFn) {
	if fn == nil {
		t.visFault.Store(nil)
		return
	}
	t.visFault.Store(&fn)
}

// applyVisFault filters one visibility decision through the installed
// fault hook, if any. The nil fast path is a single atomic load.
func (t *Tree) applyVisFault(ts txn.TxID, visible bool) bool {
	f := t.visFault.Load()
	if f == nil {
		return visible
	}
	return (*f)(ts, visible)
}

// SetMergeTestHook installs fn to run in the middle of every partition
// merge — the inputs are consumed while the output is written, so: after
// the last input record is read and the merged leaves are on the device,
// before the partition is completed (internal levels, filters) and
// installed. Recovery tests use it as a deterministic crash point "during
// an in-flight background merge". Never set outside tests.
func (t *Tree) SetMergeTestHook(fn func()) {
	if fn == nil {
		t.mergeHook.Store(nil)
		return
	}
	t.mergeHook.Store(&fn)
}
