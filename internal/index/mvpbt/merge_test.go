package mvpbt

import (
	"fmt"
	"testing"

	"mvpbt/internal/index"
	"mvpbt/internal/txn"
)

func TestMergePartitionsCollapsesToOne(t *testing.T) {
	e := newEnv(1024, 1<<26)
	tr := e.tree(Options{BloomBits: 10})
	cur := map[int]index.Ref{}
	for round := 0; round < 5; round++ {
		e.commit(func(tx *txn.Tx) {
			for k := 0; k < 50; k++ {
				key := []byte(fmt.Sprintf("t%02d", k))
				nr := e.ref()
				if p, ok := cur[k]; ok {
					tr.InsertReplacement(tx, key, nr, p.RID)
				} else {
					tr.InsertRegular(tx, key, nr)
				}
				cur[k] = nr
			}
		})
		tr.EvictPN()
	}
	if tr.NumPartitions() != 5 {
		t.Fatalf("partitions=%d want 5", tr.NumPartitions())
	}
	if err := tr.MergePartitions(); err != nil {
		t.Fatal(err)
	}
	if tr.NumPartitions() != 1 {
		t.Fatalf("after merge partitions=%d want 1", tr.NumPartitions())
	}
	if tr.Stats().Merges != 1 {
		t.Fatal("merge counter not bumped")
	}
	// Correctness: every tuple resolves to its newest version, once.
	r := e.mgr.Begin()
	defer e.mgr.Commit(r)
	for k := 0; k < 50; k++ {
		rids := lookupRIDs(t, tr, r, []byte(fmt.Sprintf("t%02d", k)))
		if len(rids) != 1 || rids[0] != cur[k].RID {
			t.Fatalf("tuple %d wrong after merge: %v want %v", k, rids, cur[k].RID)
		}
	}
	// Cross-partition GC: 5 versions per chain collapse to 1 record.
	if got := tr.Partitions()[0].NumRecords; got != 50 {
		t.Fatalf("merged partition has %d records, want 50", got)
	}
}

func TestMergeRespectsLongReader(t *testing.T) {
	e := newEnv(1024, 1<<26)
	tr := e.tree(Options{})
	v0 := e.ref()
	e.commit(func(tx *txn.Tx) { tr.InsertRegular(tx, []byte("t"), v0) })
	tr.EvictPN()
	long := e.mgr.Begin()
	prev := v0
	for i := 0; i < 4; i++ {
		e.commit(func(tx *txn.Tx) {
			nr := e.ref()
			tr.InsertReplacement(tx, []byte("t"), nr, prev.RID)
			prev = nr
		})
		tr.EvictPN()
	}
	if err := tr.MergePartitions(); err != nil {
		t.Fatal(err)
	}
	if rids := lookupRIDs(t, tr, long, []byte("t")); len(rids) != 1 || rids[0] != v0.RID {
		t.Fatalf("merge destroyed version visible to long reader: %v", rids)
	}
	fresh := e.mgr.Begin()
	if rids := lookupRIDs(t, tr, fresh, []byte("t")); len(rids) != 1 || rids[0] != prev.RID {
		t.Fatalf("merge lost newest version: %v", rids)
	}
	e.mgr.Commit(long)
	e.mgr.Commit(fresh)
}

func TestMergeDropsDanglingTombstones(t *testing.T) {
	e := newEnv(1024, 1<<26)
	tr := e.tree(Options{})
	v0 := e.ref()
	e.commit(func(tx *txn.Tx) { tr.InsertRegular(tx, []byte("gone"), v0) })
	tr.EvictPN()
	e.commit(func(tx *txn.Tx) { tr.InsertTombstone(tx, []byte("gone"), v0.RID) })
	tr.EvictPN()
	if err := tr.MergePartitions(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range tr.Partitions() {
		total += p.NumRecords
	}
	if total != 0 {
		t.Fatalf("fully dead chain left %d records after merge", total)
	}
	r := e.mgr.Begin()
	defer e.mgr.Commit(r)
	if rids := lookupRIDs(t, tr, r, []byte("gone")); len(rids) != 0 {
		t.Fatalf("deleted tuple resurrected after merge: %v", rids)
	}
}

func TestMergeWithValuesPreserved(t *testing.T) {
	e := newEnv(1024, 1<<26)
	tr := e.tree(Options{Unique: true})
	e.commit(func(tx *txn.Tx) { tr.InsertRegularVal(tx, []byte("k"), e.ref(), []byte("v1")) })
	tr.EvictPN()
	r0 := e.mgr.Begin()
	var prevRID = func() index.Ref {
		var out index.Ref
		tr.Lookup(r0, []byte("k"), func(en index.Entry) bool { out = en.Ref; return false })
		return out
	}()
	e.mgr.Commit(r0)
	e.commit(func(tx *txn.Tx) {
		tr.pnPut([]byte("k"), &Record{Type: Replacement, TS: tx.ID, Ref: e.ref(), OldRID: prevRID.RID, Val: []byte("v2")})
	})
	tr.EvictPN()
	if err := tr.MergePartitions(); err != nil {
		t.Fatal(err)
	}
	r := e.mgr.Begin()
	defer e.mgr.Commit(r)
	var got []byte
	tr.Lookup(r, []byte("k"), func(en index.Entry) bool {
		got = append([]byte(nil), en.Val...)
		return false
	})
	if string(got) != "v2" {
		t.Fatalf("value after merge: %q", got)
	}
}

func TestAutoMergeTriggered(t *testing.T) {
	e := newEnv(2048, 20<<10) // small partition buffer: frequent evictions
	tr := e.tree(Options{MaxPartitions: 3})
	e.commit(func(tx *txn.Tx) {
		for i := 0; i < 4000; i++ {
			tr.InsertRegular(tx, []byte(fmt.Sprintf("k%06d", i)), e.ref())
		}
	})
	if tr.NumPartitions() > 4 {
		t.Fatalf("auto-merge did not cap partitions: %d", tr.NumPartitions())
	}
	if tr.Stats().Merges == 0 {
		t.Fatal("auto-merge never ran")
	}
	r := e.mgr.Begin()
	defer e.mgr.Commit(r)
	for i := 0; i < 4000; i += 307 {
		if rids := lookupRIDs(t, tr, r, []byte(fmt.Sprintf("k%06d", i))); len(rids) != 1 {
			t.Fatalf("key %d lost across auto-merges", i)
		}
	}
}

func TestMergeRandomizedModelEquivalence(t *testing.T) {
	// Random history with interleaved evictions AND merges must match the
	// no-merge tree exactly.
	e1 := newEnv(2048, 1<<26)
	e2 := newEnv(2048, 1<<26)
	a := e1.tree(Options{Name: "merged", BloomBits: 10})
	b := e2.tree(Options{Name: "plain", BloomBits: 10})
	// Mirror rid sequences.
	r := newTestRand()
	cur := map[int]index.Ref{}
	for step := 0; step < 2500; step++ {
		k := r.Intn(80)
		key := []byte(fmt.Sprintf("key-%03d", k))
		ref1 := e1.ref()
		ref2 := index.Ref{RID: ref1.RID} // identical synthetic rid
		e2.rid = e1.rid
		tx1 := e1.mgr.Begin()
		tx2 := e2.mgr.Begin()
		if p, ok := cur[k]; ok {
			if r.Intn(12) == 0 {
				a.InsertTombstone(tx1, key, p.RID)
				b.InsertTombstone(tx2, key, p.RID)
				delete(cur, k)
			} else {
				a.InsertReplacement(tx1, key, ref1, p.RID)
				b.InsertReplacement(tx2, key, ref2, p.RID)
				cur[k] = ref1
			}
		} else {
			a.InsertRegular(tx1, key, ref1)
			b.InsertRegular(tx2, key, ref2)
			cur[k] = ref1
		}
		e1.mgr.Commit(tx1)
		e2.mgr.Commit(tx2)
		if r.Intn(200) == 0 {
			if err := a.EvictPN(); err != nil {
				t.Fatal(err)
			}
			if err := b.EvictPN(); err != nil {
				t.Fatal(err)
			}
		}
		if r.Intn(500) == 0 {
			if err := a.MergePartitions(); err != nil {
				t.Fatal(err)
			}
		}
	}
	r1 := e1.mgr.Begin()
	r2 := e2.mgr.Begin()
	defer e1.mgr.Commit(r1)
	defer e2.mgr.Commit(r2)
	for k := 0; k < 80; k++ {
		key := []byte(fmt.Sprintf("key-%03d", k))
		ra := lookupRIDs(t, a, r1, key)
		rb := lookupRIDs(t, b, r2, key)
		if len(ra) != len(rb) {
			t.Fatalf("key %d: merged=%v plain=%v", k, ra, rb)
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("key %d: merged=%v plain=%v", k, ra, rb)
			}
		}
	}
}

func newTestRand() *testRand { return &testRand{s: 31337} }

type testRand struct{ s uint64 }

func (r *testRand) Intn(n int) int {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return int((r.s >> 33) % uint64(n))
}
