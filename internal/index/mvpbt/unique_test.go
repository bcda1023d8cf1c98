package mvpbt

import (
	"fmt"
	"testing"

	"mvpbt/internal/index"
	"mvpbt/internal/storage"
	"mvpbt/internal/txn"
	"mvpbt/internal/util"
)

// blindPut inserts a regular record without any predecessor reference —
// the unique-index blind-write path.
func blindPut(e *env, tr *Tree, key string, val string) index.Ref {
	ref := e.ref()
	e.commit(func(tx *txn.Tx) {
		tr.InsertRegularVal(tx, []byte(key), ref, []byte(val))
	})
	return ref
}

func blindDelete(e *env, tr *Tree, key string) {
	e.commit(func(tx *txn.Tx) {
		tr.InsertTombstone(tx, []byte(key), storage.RecordID{})
	})
}

func uniqueGet(t *testing.T, tr *Tree, tx *txn.Tx, key string) (string, bool) {
	t.Helper()
	var val string
	found := false
	if err := tr.Lookup(tx, []byte(key), func(en index.Entry) bool {
		val = string(en.Val)
		found = true
		return false
	}); err != nil {
		t.Fatal(err)
	}
	return val, found
}

func TestUniqueBlindOverwrite(t *testing.T) {
	e := newEnv(256, 1<<22)
	tr := e.tree(Options{Unique: true})
	blindPut(e, tr, "k", "v1")
	blindPut(e, tr, "k", "v2")
	blindPut(e, tr, "k", "v3")
	r := e.mgr.Begin()
	defer e.mgr.Commit(r)
	if v, ok := uniqueGet(t, tr, r, "k"); !ok || v != "v3" {
		t.Fatalf("got %q/%v want v3", v, ok)
	}
}

func TestUniqueBlindDeleteHidesAllHistory(t *testing.T) {
	e := newEnv(256, 1<<22)
	tr := e.tree(Options{Unique: true})
	blindPut(e, tr, "k", "v1")
	tr.EvictPN()
	blindPut(e, tr, "k", "v2")
	blindDelete(e, tr, "k")
	r := e.mgr.Begin()
	defer e.mgr.Commit(r)
	if v, ok := uniqueGet(t, tr, r, "k"); ok {
		t.Fatalf("deleted key visible: %q", v)
	}
	// Re-insert resurrects cleanly.
	blindPut(e, tr, "k", "v4")
	r2 := e.mgr.Begin()
	defer e.mgr.Commit(r2)
	if v, ok := uniqueGet(t, tr, r2, "k"); !ok || v != "v4" {
		t.Fatalf("reinsert got %q/%v", v, ok)
	}
}

func TestUniqueSnapshotsAcrossBlindWrites(t *testing.T) {
	e := newEnv(256, 1<<22)
	tr := e.tree(Options{Unique: true})
	blindPut(e, tr, "k", "v1")
	s1 := e.mgr.Begin()
	blindPut(e, tr, "k", "v2")
	s2 := e.mgr.Begin()
	blindDelete(e, tr, "k")
	s3 := e.mgr.Begin()
	if v, _ := uniqueGet(t, tr, s1, "k"); v != "v1" {
		t.Fatalf("s1 sees %q", v)
	}
	if v, _ := uniqueGet(t, tr, s2, "k"); v != "v2" {
		t.Fatalf("s2 sees %q", v)
	}
	if _, ok := uniqueGet(t, tr, s3, "k"); ok {
		t.Fatal("s3 sees deleted key")
	}
	e.mgr.Commit(s1)
	e.mgr.Commit(s2)
	e.mgr.Commit(s3)
}

func TestUniqueUncommittedAndAbortedSkipped(t *testing.T) {
	e := newEnv(256, 1<<22)
	tr := e.tree(Options{Unique: true})
	blindPut(e, tr, "k", "committed")
	w := e.mgr.Begin()
	tr.InsertRegularVal(w, []byte("k"), e.ref(), []byte("dirty"))
	r := e.mgr.Begin()
	if v, _ := uniqueGet(t, tr, r, "k"); v != "committed" {
		t.Fatalf("reader sees %q", v)
	}
	// The writer sees its own value.
	if v, _ := uniqueGet(t, tr, w, "k"); v != "dirty" {
		t.Fatalf("writer sees %q", v)
	}
	e.mgr.Abort(w)
	e.mgr.Commit(r)
	r2 := e.mgr.Begin()
	defer e.mgr.Commit(r2)
	if v, _ := uniqueGet(t, tr, r2, "k"); v != "committed" {
		t.Fatalf("aborted write leaked: %q", v)
	}
}

func TestUniqueScanOneVersionPerKey(t *testing.T) {
	e := newEnv(512, 1<<22)
	tr := e.tree(Options{Unique: true, BloomBits: 10})
	// Multiple generations of each key spread over partitions.
	for gen := 0; gen < 4; gen++ {
		for k := 0; k < 50; k++ {
			blindPut(e, tr, fmt.Sprintf("k%03d", k), fmt.Sprintf("g%d", gen))
		}
		tr.EvictPN()
	}
	// Delete a few.
	for k := 0; k < 50; k += 10 {
		blindDelete(e, tr, fmt.Sprintf("k%03d", k))
	}
	r := e.mgr.Begin()
	defer e.mgr.Commit(r)
	seen := map[string]string{}
	err := tr.Scan(r, []byte("k"), []byte("l"), func(en index.Entry) bool {
		if _, dup := seen[string(en.Key)]; dup {
			t.Fatalf("duplicate key %q in unique scan", en.Key)
		}
		seen[string(en.Key)] = string(en.Val)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 45 {
		t.Fatalf("scan found %d keys, want 45", len(seen))
	}
	for k, v := range seen {
		if v != "g3" {
			t.Fatalf("key %s resolved to stale generation %s", k, v)
		}
	}
}

func TestUniqueEvictionGCDropsHistory(t *testing.T) {
	e := newEnv(512, 1<<24)
	tr := e.tree(Options{Unique: true})
	for gen := 0; gen < 20; gen++ {
		for k := 0; k < 10; k++ {
			blindPut(e, tr, fmt.Sprintf("k%d", k), fmt.Sprintf("g%d", gen))
		}
	}
	tr.EvictPN()
	// 200 records, no active snapshots: only the 10 newest survive.
	if got := tr.Partitions()[0].NumRecords; got != 10 {
		t.Fatalf("unique eviction GC kept %d records, want 10", got)
	}
	r := e.mgr.Begin()
	defer e.mgr.Commit(r)
	for k := 0; k < 10; k++ {
		if v, ok := uniqueGet(t, tr, r, fmt.Sprintf("k%d", k)); !ok || v != "g19" {
			t.Fatalf("key %d: %q/%v", k, v, ok)
		}
	}
}

func TestUniqueEvictionGCRespectsSnapshot(t *testing.T) {
	e := newEnv(512, 1<<24)
	tr := e.tree(Options{Unique: true})
	blindPut(e, tr, "k", "old")
	long := e.mgr.Begin()
	blindPut(e, tr, "k", "new")
	tr.EvictPN()
	if v, ok := uniqueGet(t, tr, long, "k"); !ok || v != "old" {
		t.Fatalf("long reader lost its version: %q/%v", v, ok)
	}
	e.mgr.Commit(long)
}

func TestUniqueMergeKeepsTombstones(t *testing.T) {
	e := newEnv(512, 1<<24)
	tr := e.tree(Options{Unique: true})
	blindPut(e, tr, "k", "v")
	tr.EvictPN()
	blindDelete(e, tr, "k")
	tr.EvictPN()
	if err := tr.MergePartitions(); err != nil {
		t.Fatal(err)
	}
	r := e.mgr.Begin()
	defer e.mgr.Commit(r)
	if v, ok := uniqueGet(t, tr, r, "k"); ok {
		t.Fatalf("deleted key resurrected after unique merge: %q", v)
	}
}

func TestUniqueRandomizedModel(t *testing.T) {
	e := newEnv(1024, 1<<24)
	tr := e.tree(Options{Unique: true, BloomBits: 10, MaxPartitions: 6})
	r := util.NewRand(777)
	model := map[string]string{}
	type snap struct {
		tx    *txn.Tx
		state map[string]string
	}
	var snaps []snap
	for step := 0; step < 4000; step++ {
		k := fmt.Sprintf("key-%03d", r.Intn(150))
		if r.Intn(10) == 0 {
			blindDelete(e, tr, k)
			delete(model, k)
		} else {
			v := fmt.Sprintf("s%d", step)
			blindPut(e, tr, k, v)
			model[k] = v
		}
		rd := e.mgr.Begin()
		lookupIsPointScan(t, tr, rd, []byte(k))
		e.mgr.Commit(rd)
		if r.Intn(500) == 0 {
			tr.EvictPN()
		}
		if r.Intn(900) == 0 && len(snaps) < 4 {
			st := make(map[string]string, len(model))
			for k, v := range model {
				st[k] = v
			}
			snaps = append(snaps, snap{tx: e.mgr.Begin(), state: st})
		}
	}
	st := make(map[string]string, len(model))
	for k, v := range model {
		st[k] = v
	}
	snaps = append(snaps, snap{tx: e.mgr.Begin(), state: st})

	for si, s := range snaps {
		got := map[string]string{}
		err := tr.Scan(s.tx, []byte("key-"), []byte("key-~"), func(en index.Entry) bool {
			got[string(en.Key)] = string(en.Val)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(s.state) {
			t.Fatalf("snapshot %d: %d keys, want %d", si, len(got), len(s.state))
		}
		for k, v := range s.state {
			if got[k] != v {
				t.Fatalf("snapshot %d key %s: %q want %q", si, k, got[k], v)
			}
		}
		e.mgr.Commit(s.tx)
	}
}
