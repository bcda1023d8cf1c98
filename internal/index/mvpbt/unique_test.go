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

// TestUniqueLongWritersReadAlike: long-running transactions make blind
// writes and deletes over 8 keys while partitions are evicted and merged, so
// a transaction's record often reaches the tree after a newer-timestamp
// record of its key was persisted. At a fresh snapshot after every step, a
// lookup of each key hands out what a scan of that key does; an eviction
// or merge changes no fresh snapshot's lookups.
func TestUniqueLongWritersReadAlike(t *testing.T) {
	for seed := uint64(1); seed <= 32; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { longWriters(t, seed, true) })
	}
}

// TestEvictionTimingChoosesNoWinner runs each history of
// TestUniqueLongWritersReadAlike twice, with its evictions and with them
// left out: a key's records are in write order wherever they lie, so the
// final lookups are the same. Under a timestamp order in P_N a blind write
// by an older transaction after a newer one's loses while both sit in P_N
// and wins once the newer one was evicted first.
func TestEvictionTimingChoosesNoWinner(t *testing.T) {
	for seed := uint64(1); seed <= 32; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			if with, without := longWriters(t, seed, true), longWriters(t, seed, false); with != without {
				t.Fatalf("final lookups %s with the evictions, %s without", with, without)
			}
		})
	}
}

// longWriters runs one random history of long-running blind writers over a
// unique tree, holding every fresh snapshot's lookups to its point scans and
// across every eviction and merge, and returns the final lookups. Without
// evict its eviction steps do nothing.
func longWriters(t *testing.T, seed uint64, evict bool) string {
	const keys, steps = 8, 120
	e := newEnv(64, 1<<26)
	tr := e.tree(Options{Unique: true, BloomBits: 10})
	r := util.NewRand(seed)
	key := func(k int) []byte { return []byte(fmt.Sprintf("k%d", k)) }
	lookups := func() string {
		rd := e.mgr.Begin()
		defer e.mgr.Commit(rd)
		var out []string
		for k := 0; k < keys; k++ {
			lookupIsPointScan(t, tr, rd, key(k))
			out = append(out, fmt.Sprint(lookupRIDs(t, tr, rd, key(k))))
		}
		return fmt.Sprint(out)
	}
	var open []*txn.Tx
	for step := 0; step < steps; step++ {
		var err error
		switch op := r.Intn(10); {
		case op < 2 || len(open) == 0:
			open = append(open, e.mgr.Begin())
		case op < 6:
			tx, k := open[r.Intn(len(open))], key(r.Intn(keys))
			if r.Intn(3) == 0 {
				err = tr.InsertTombstone(tx, k, storage.RecordID{})
			} else {
				err = tr.InsertRegular(tx, k, e.ref())
			}
		case op < 8:
			i := r.Intn(len(open))
			e.mgr.Commit(open[i])
			open = append(open[:i], open[i+1:]...)
		default:
			before, what := lookups(), "eviction"
			switch {
			case op == 9:
				what, err = "merge", tr.MergePartitions()
			case evict:
				err = tr.EvictPN()
			}
			if after := lookups(); err == nil && after != before {
				t.Fatalf("step %d: the %s changed a fresh snapshot's lookups from %s to %s", step, what, before, after)
			}
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		lookups()
	}
	for _, tx := range open {
		e.mgr.Commit(tx)
	}
	return lookups()
}
