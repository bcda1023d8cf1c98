package mvpbt

// The one test-only hook. A planted bug does not need one: mutants.list
// plants each in a copy of the source (`make mutants`).

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
