package mvpbt

import "mvpbt/internal/txn"

// Test-only mutation hooks for the differential correctness harness
// (internal/check), which asserts the structural invariants — per-source key
// ordering, a key's records kept in write order from audit to audit, and
// that the visible result set is a subset of the raw matter records — over
// DumpRange (dump.go). The fault
// hook lets the harness verify its own teeth: a deliberately corrupted
// visibility decision must be caught and shrunk to a minimal history.

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
// an in-flight merge", concurrency tests to hold a writer inside its inline
// merge. Never set outside tests.
func (t *Tree) SetMergeTestHook(fn func()) {
	if fn == nil {
		t.mergeHook.Store(nil)
		return
	}
	t.mergeHook.Store(&fn)
}
