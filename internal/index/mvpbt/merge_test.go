package mvpbt

import (
	"fmt"
	"slices"
	"testing"

	"mvpbt/internal/index"
	"mvpbt/internal/index/part"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
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

// TestWriteAfterEvictedTombstoneWins: a long-running writer inserts a key,
// with a timestamp older than the tombstone that deleted it meanwhile, after
// the tombstone was evicted; its record waits in P_N, which every reader
// meets before the partitions. A fresh lookup and a fresh scan both return
// the writer's row. A merge of every partition then drops the tombstone,
// committed below the horizon, with the row it deleted, and both reads
// still return the writer's row.
func TestWriteAfterEvictedTombstoneWins(t *testing.T) {
	e := newEnv(1024, 1<<26)
	tr := e.tree(Options{Unique: true, BloomBits: 10})
	key, v0, v1 := []byte("k"), e.ref(), e.ref()
	e.commit(func(tx *txn.Tx) { tr.InsertRegular(tx, key, v0) })
	tr.EvictPN()
	w := e.mgr.Begin()
	e.commit(func(tx *txn.Tx) { tr.InsertTombstone(tx, key, v0.RID) })
	tr.EvictPN()
	tr.InsertRegular(w, key, v1)
	e.mgr.Commit(w)
	reads := func(when string) {
		t.Helper()
		r := e.mgr.Begin()
		defer e.mgr.Commit(r)
		lookupIsPointScan(t, tr, r, key)
		if got := lookupRIDs(t, tr, r, key); len(got) != 1 || got[0] != v1.RID {
			t.Fatalf("%s: a fresh lookup returns %v, want the writer's %v", when, got, v1.RID)
		}
	}
	reads("before the merge")
	if err := tr.MergePartitions(); err != nil {
		t.Fatal(err)
	}
	dump, err := tr.DumpKey(key)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumPartitions() != 0 || len(dump) != 1 || dump[0].Rec.Ref != v1 {
		t.Fatalf("after the merge: %d partitions, records of the key %v; want the writer's alone", tr.NumPartitions(), dump)
	}
	reads("after the merge")
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
		tr.pnPut([]byte("k"), Record{Type: Replacement, TS: tx.ID, Ref: e.ref(), OldRID: prevRID.RID, Val: []byte("v2")})
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

// TestMergeRandomizedModelEquivalence: a random history with interleaved
// evictions and merges must match the no-merge tree exactly — merges called
// for (all partitions), and merges MaxPartitions triggers on a tree evicting
// small partitions often (all of them, or the newer ones).
func TestMergeRandomizedModelEquivalence(t *testing.T) {
	e1 := newEnv(2048, 1<<26)
	e2 := newEnv(2048, 1<<26)
	e3 := newEnv(2048, 1<<26)
	a := e1.tree(Options{Name: "merged", BloomBits: 10})
	b := e2.tree(Options{Name: "plain", BloomBits: 10})
	c := e3.tree(Options{Name: "tiered", BloomBits: 10, MaxPartitions: 3})
	// Mirror rid sequences.
	r := newTestRand()
	cur := map[int]index.Ref{}
	partial, full := 0, 0
	for step := 0; step < 2500; step++ {
		k := r.Intn(80)
		key := []byte(fmt.Sprintf("key-%03d", k))
		ref := e1.ref()
		e2.rid, e3.rid = e1.rid, e1.rid // identical synthetic rids
		txs := []*txn.Tx{e1.mgr.Begin(), e2.mgr.Begin(), e3.mgr.Begin()}
		trees := []*Tree{a, b, c}
		if p, ok := cur[k]; ok {
			if r.Intn(12) == 0 {
				for i, tr := range trees {
					tr.InsertTombstone(txs[i], key, p.RID)
				}
				delete(cur, k)
			} else {
				for i, tr := range trees {
					tr.InsertReplacement(txs[i], key, ref, p.RID)
				}
				cur[k] = ref
			}
		} else {
			for i, tr := range trees {
				tr.InsertRegular(txs[i], key, ref)
			}
			cur[k] = ref
		}
		for i, e := range []*env{e1, e2, e3} {
			e.mgr.Commit(txs[i])
		}
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
		if step%4 == 3 {
			merges := c.Stats().Merges
			if err := c.EvictPN(); err != nil {
				t.Fatal(err)
			}
			// A merge of every partition leaves one; of the newer ones, two.
			switch n := c.NumPartitions(); {
			case c.Stats().Merges == merges:
			case n == 1:
				full++
			case n == 2:
				partial++
			default:
				t.Fatalf("step %d: %d partitions after a merge", step, n)
			}
		}
	}
	if partial == 0 || full == 0 {
		t.Fatalf("%d partial and %d full merges: want both", partial, full)
	}
	snaps := []*txn.Tx{e1.mgr.Begin(), e2.mgr.Begin(), e3.mgr.Begin()}
	defer e1.mgr.Commit(snaps[0])
	defer e2.mgr.Commit(snaps[1])
	defer e3.mgr.Commit(snaps[2])
	for k := 0; k < 80; k++ {
		key := []byte(fmt.Sprintf("key-%03d", k))
		rb := lookupRIDs(t, b, snaps[1], key)
		for i, tr := range []*Tree{a, c} {
			if got := lookupRIDs(t, tr, snaps[2*i], key); !slices.Equal(got, rb) {
				t.Fatalf("key %d: %s=%v plain=%v", k, tr.opts.Name, got, rb)
			}
		}
	}
}

// TestPartialMergeKeepsAntiMatter: a tombstone whose target lies in the
// oldest partition must survive a merge of the newer ones — only a merge of
// every partition may decide that a target exists nowhere. A reader holds
// the tombstone's partition above the horizon while the partitions are
// evicted, so the garbage trigger does not merge all three first.
func TestPartialMergeKeepsAntiMatter(t *testing.T) {
	e := newEnv(1024, 1<<26)
	tr := e.tree(Options{BloomBits: 10})
	old := e.ref()
	e.commit(func(tx *txn.Tx) { tr.InsertRegular(tx, []byte("t"), old) })
	if err := tr.EvictPN(); err != nil {
		t.Fatal(err)
	}
	pin := e.mgr.Begin()
	e.commit(func(tx *txn.Tx) { tr.InsertTombstone(tx, []byte("t"), old.RID) })
	if err := tr.EvictPN(); err != nil {
		t.Fatal(err)
	}
	e.commit(func(tx *txn.Tx) { tr.InsertRegular(tx, []byte("u"), e.ref()) })
	if err := tr.EvictPN(); err != nil {
		t.Fatal(err)
	}
	e.mgr.Commit(pin)
	if err := tr.mergeSuffix(1); err != nil {
		t.Fatal(err)
	}
	if n := tr.NumPartitions(); n != 2 {
		t.Fatalf("%d partitions after merging the newer two, want 2", n)
	}
	r := e.mgr.Begin()
	defer e.mgr.Commit(r)
	if rids := lookupRIDs(t, tr, r, []byte("t")); len(rids) != 0 {
		t.Fatalf("deleted tuple visible after a partial merge: %v", rids)
	}
	if got := tr.Partitions()[1].NumRecords; got != 2 {
		t.Fatalf("merged partition holds %d records, want the tombstone and u's", got)
	}
}

// TestMergeFrom pins the size-tiered rule at its boundaries.
func TestMergeFrom(t *testing.T) {
	parts := func(sizes ...int) []*part.Segment {
		var out []*part.Segment
		for _, n := range sizes {
			out = append(out, &part.Segment{SizeBytes: n})
		}
		return out
	}
	for _, c := range []struct {
		sizes []int
		want  int
	}{
		{[]int{1000, 1}, 0},              // fewer than 3: merge both
		{[]int{1000}, 0},                 //
		{[]int{1000, 166, 167}, 1},       // 3 x 333 < 1000
		{[]int{1000, 167, 167}, 0},       // 3 x 334 past it
		{[]int{1000, 100, 100}, 1},       // a fifth, well inside a third
		{[]int{1000, 80, 80, 80, 93}, 1}, // 3 x 333
		{[]int{1000, 80, 80, 80, 94}, 0}, //
	} {
		if got := mergeFrom(parts(c.sizes...)); got != c.want {
			t.Errorf("mergeFrom(%v) = %d, want %d", c.sizes, got, c.want)
		}
	}
}

// TestCountMergeWriteCost holds the count trigger to its write-cost model
// (DESIGN.md §7). A unique tree under MaxPartitions 10 takes rounds of
// overwrites over a fixed key set, each round every key once in key order,
// so that no key is written twice between two full merges. Then, with B the
// oldest partition's bytes and e one eviction's: at the first count trigger
// after a full merge the newer partitions hold D = 10e, and 9e more at each
// later one; they merge alone while tierRatio·D < B, and the full merge
// that follows writes B, every older version dropped. Merge bytes per
// evicted byte over a cycle are then (ΣD of the partial merges + B) / D of
// the last trigger; T − ½ + B/(2TΔ), Δ = 9e, is its continuous form. Here
// B/Δ is about 9.7, as on the kv shards. The measured ratio over three
// cycles past the fill must be within 15 % of the model at tierRatio 3, and
// under 0.85 of it at 5, which a tree merging at a fifth reaches.
func TestCountMergeWriteCost(t *testing.T) {
	const keys, maxParts = 38000, 10
	e := newEnv(1024, 64<<10)
	tr := e.tree(Options{Unique: true, BloomBits: 10, MaxPartitions: maxParts})
	val := make([]byte, 100)
	put := func(k int) {
		e.commit(func(tx *txn.Tx) {
			if err := tr.InsertRegularVal(tx, []byte(fmt.Sprintf("user%06d", k)), e.ref(), val); err != nil {
				t.Fatal(err)
			}
		})
	}
	var (
		dev0                 ssd.Stats
		evictions0           int64
		full, oldest, merges int
	)
	for n := 0; full < 4; n++ { // the fill, then to the fourth full merge past it
		put(n % keys)
		if m := int(tr.Stats().Merges); m != merges && n >= keys && tr.NumPartitions() == 1 {
			if full == 0 {
				dev0, evictions0 = e.dev.Stats(), tr.Stats().Evictions
			} else {
				oldest += tr.Partitions()[0].NumLeaves * storage.PageSize
			}
			full++
		}
		merges = int(tr.Stats().Merges)
	}
	d := e.dev.Stats().Sub(dev0)
	evicted, merged := float64(d.Written[ssd.CauseEvict].Bytes), float64(d.Written[ssd.CauseMerge].Bytes)
	b, one := float64(oldest)/3, evicted/float64(tr.Stats().Evictions-evictions0)
	model := func(ratio float64) float64 {
		sum, newer := 0.0, maxParts*one
		for ; ratio*newer < b; newer += (maxParts - 1) * one {
			sum += newer
		}
		return (sum + b) / newer
	}
	got := merged / evicted
	t.Logf("B %.0f KiB, e %.1f KiB: %.3f merge bytes per evicted byte; model %.3f at a third, %.3f at a fifth",
		b/1024, one/1024, got, model(3), model(5))
	if got < 0.85*model(3) || got > 1.15*model(3) {
		t.Errorf("merge bytes per evicted byte %.3f, want within 15 %% of the model's %.3f at a third", got, model(3))
	}
	if got >= 0.85*model(5) {
		t.Errorf("merge bytes per evicted byte %.3f, want under 0.85 of the model's %.3f at a fifth", got, model(5))
	}
}

func newTestRand() *testRand { return &testRand{s: 31337} }

type testRand struct{ s uint64 }

func (r *testRand) Intn(n int) int {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return int((r.s >> 33) % uint64(n))
}
