package mvpbt

import (
	"fmt"
	"testing"

	"mvpbt/internal/index"
	"mvpbt/internal/txn"
)

// The garbage trigger (mergeStart): after an eviction, a tree merges all its
// partitions once 7/8 of their records are collectable, counting only the
// partitions below the GC horizon.

// updateRounds inserts keys k00..k49 as round 0 and replaces each of them
// once per later round, evicting after every round; after each eviction it
// calls check with the round number. It returns the current version of
// every key.
func updateRounds(t *testing.T, e *env, tr *Tree, rounds int, check func(round int)) []index.Ref {
	t.Helper()
	cur := make([]index.Ref, 50)
	for round := 0; round < rounds; round++ {
		e.commit(func(tx *txn.Tx) {
			for k := range cur {
				key, ref := []byte(fmt.Sprintf("k%02d", k)), e.ref()
				var err error
				if round == 0 {
					err = tr.InsertRegular(tx, key, ref)
				} else {
					err = tr.InsertReplacement(tx, key, ref, cur[k].RID)
				}
				if err != nil {
					t.Fatal(err)
				}
				cur[k] = ref
			}
		})
		if err := tr.EvictPN(); err != nil {
			t.Fatal(err)
		}
		if check != nil {
			check(round)
		}
	}
	return cur
}

// evictFresh evicts n fresh keys, inserted and never touched again.
func evictFresh(t *testing.T, e *env, tr *Tree, prefix string, n int) {
	t.Helper()
	e.commit(func(tx *txn.Tx) {
		for i := 0; i < n; i++ {
			if err := tr.InsertRegular(tx, []byte(fmt.Sprintf("%s%04d", prefix, i)), e.ref()); err != nil {
				t.Fatal(err)
			}
		}
	})
	if err := tr.EvictPN(); err != nil {
		t.Fatal(err)
	}
}

// TestGarbageTriggerMergesHotKeys: a unique tree whose 50 keys are replaced
// every round holds k stale versions to each live one after round k, so it
// merges after round 7 (7/8), not before, into one record per live key. Two
// evictions of fresh keys afterwards add nothing collectable and merge
// nothing.
func TestGarbageTriggerMergesHotKeys(t *testing.T) {
	e := newEnv(1024, 1<<26)
	tr := e.tree(Options{Unique: true, BloomBits: 10})
	cur := updateRounds(t, e, tr, 8, func(round int) {
		if want := int64(round / 7); tr.Stats().Merges != want {
			t.Fatalf("after round %d: %d merges, want %d (collectable %v)", round, tr.Stats().Merges, want, tr.Collectable())
		}
	})
	if n, recs := tr.NumPartitions(), tr.Partitions()[0].NumRecords; n != 1 || recs != 50 || tr.Collectable()[0] != 0 {
		t.Fatalf("after the merge: %d partitions, %d records, collectable %v; want one record per live key", n, recs, tr.Collectable())
	}
	r := e.mgr.Begin()
	for k, ref := range cur {
		if rids := lookupRIDs(t, tr, r, []byte(fmt.Sprintf("k%02d", k))); len(rids) != 1 || rids[0] != ref.RID {
			t.Fatalf("key %d after the merge: %v, want %v", k, rids, ref.RID)
		}
	}
	e.mgr.Commit(r)
	evictFresh(t, e, tr, "x", 20)
	evictFresh(t, e, tr, "y", 20)
	if tr.Stats().Merges != 1 || tr.NumPartitions() != 3 {
		t.Fatalf("%d merges, %d partitions after two evictions of fresh keys", tr.Stats().Merges, tr.NumPartitions())
	}
}

// TestGarbageTriggerIgnoresInserts: insert-only trees, unique or not, hold
// nothing collectable and never merge.
func TestGarbageTriggerIgnoresInserts(t *testing.T) {
	for _, unique := range []bool{false, true} {
		e := newEnv(1024, 1<<26)
		tr := e.tree(Options{Unique: unique, BloomBits: 10})
		for p := 0; p < 12; p++ {
			evictFresh(t, e, tr, fmt.Sprintf("p%02d-", p), 30)
		}
		if tr.Stats().Merges != 0 || tr.NumPartitions() != 12 {
			t.Fatalf("unique %v: %d merges, %d partitions; collectable %v", unique, tr.Stats().Merges, tr.NumPartitions(), tr.Collectable())
		}
	}
}

// TestGarbageTriggerWaitsForHorizon: while a snapshot older than every
// partition is open, no partition counts and nothing merges, however stale;
// the first eviction after it closes runs the merge.
func TestGarbageTriggerWaitsForHorizon(t *testing.T) {
	e := newEnv(1024, 1<<26)
	tr := e.tree(Options{Unique: true, BloomBits: 10})
	pin := e.mgr.Begin()
	updateRounds(t, e, tr, 12, nil)
	if tr.Stats().Merges != 0 || tr.NumPartitions() != 12 {
		t.Fatalf("under the snapshot: %d merges, %d partitions", tr.Stats().Merges, tr.NumPartitions())
	}
	e.mgr.Commit(pin)
	evictFresh(t, e, tr, "x", 1)
	if tr.Stats().Merges != 1 || tr.NumPartitions() != 1 || tr.Partitions()[0].NumRecords != 51 {
		t.Fatalf("after the snapshot closed: %d merges, %d partitions", tr.Stats().Merges, tr.NumPartitions())
	}
}

// TestGarbageTriggerOffWithoutGC: a DisableGC tree counts nothing and never
// merges by itself.
func TestGarbageTriggerOffWithoutGC(t *testing.T) {
	for _, unique := range []bool{false, true} {
		e := newEnv(1024, 1<<26)
		tr := e.tree(Options{Unique: unique, DisableGC: true})
		updateRounds(t, e, tr, 12, nil)
		for i, n := range tr.Collectable() {
			if n != 0 {
				t.Fatalf("unique %v: partition %d counts %d collectable", unique, i, n)
			}
		}
		if tr.Stats().Merges != 0 || tr.NumPartitions() != 12 {
			t.Fatalf("unique %v: %d merges, %d partitions", unique, tr.Stats().Merges, tr.NumPartitions())
		}
	}
}

// TestGarbageTriggerMergesDeletes: in a non-unique tree a tombstone counts
// itself and the version it deletes, so deleting every key merges, and the
// merge of a whole deleted history writes nothing.
func TestGarbageTriggerMergesDeletes(t *testing.T) {
	e := newEnv(1024, 1<<26)
	tr := e.tree(Options{BloomBits: 10})
	refs := make([]index.Ref, 40)
	e.commit(func(tx *txn.Tx) {
		for i := range refs {
			refs[i] = e.ref()
			tr.InsertRegular(tx, []byte(fmt.Sprintf("k%02d", i%10)), refs[i])
		}
	})
	if err := tr.EvictPN(); err != nil {
		t.Fatal(err)
	}
	e.commit(func(tx *txn.Tx) {
		for i, ref := range refs {
			tr.InsertTombstone(tx, []byte(fmt.Sprintf("k%02d", i%10)), ref.RID)
		}
	})
	if err := tr.EvictPN(); err != nil {
		t.Fatal(err)
	}
	if tr.Stats().Merges != 1 || tr.NumPartitions() != 0 {
		t.Fatalf("%d merges, %d partitions after deleting every key", tr.Stats().Merges, tr.NumPartitions())
	}
}

// TestGarbageTriggerKeyUpdateNoLoop: a key update's replacement keeps its
// anti-matter across every merge, since its target lies under the old key.
// After the merge that collects the old keys, those replacements are all
// the tree holds, yet two evictions that add nothing collectable start no
// second merge.
func TestGarbageTriggerKeyUpdateNoLoop(t *testing.T) {
	e := newEnv(1024, 1<<26)
	tr := e.tree(Options{BloomBits: 10})
	refs := make([]index.Ref, 40)
	e.commit(func(tx *txn.Tx) {
		for i := range refs {
			refs[i] = e.ref()
			tr.InsertRegular(tx, []byte(fmt.Sprintf("a%02d", i)), refs[i])
		}
	})
	if err := tr.EvictPN(); err != nil {
		t.Fatal(err)
	}
	e.commit(func(tx *txn.Tx) {
		for i, ref := range refs {
			tr.InsertKeyUpdate(tx, []byte(fmt.Sprintf("a%02d", i)), []byte(fmt.Sprintf("b%02d", i)), e.ref(), ref.RID)
		}
	})
	if err := tr.EvictPN(); err != nil {
		t.Fatal(err)
	}
	if tr.Stats().Merges != 1 || tr.NumPartitions() != 1 || tr.Partitions()[0].NumRecords != 40 {
		t.Fatalf("%d merges, %d partitions after the key updates", tr.Stats().Merges, tr.NumPartitions())
	}
	evictFresh(t, e, tr, "c", 1)
	evictFresh(t, e, tr, "d", 1)
	if tr.Stats().Merges != 1 || tr.NumPartitions() != 3 {
		t.Fatalf("%d merges, %d partitions after two evictions of fresh keys; collectable %v",
			tr.Stats().Merges, tr.NumPartitions(), tr.Collectable())
	}
}

// TestGarbageTriggerQuietOnKVIngest: a KV tree (unique, blind puts) under
// MaxPartitions 10 with kv_ingest's shape — three puts per key over the run,
// uniform over the keys — merges only by the count trigger: every merge
// follows an eviction that took the tree past MaxPartitions.
func TestGarbageTriggerQuietOnKVIngest(t *testing.T) {
	const keys, puts, perPN, maxParts = 2000, 6000, 100, 10
	e := newEnv(1024, 1<<30)
	tr := e.tree(Options{Unique: true, BloomBits: 10, MaxPartitions: maxParts})
	r := newTestRand()
	val := make([]byte, 1024)
	for done := 0; done < puts; done += perPN {
		e.commit(func(tx *txn.Tx) {
			for i := 0; i < perPN; i++ {
				if err := tr.InsertRegularVal(tx, []byte(fmt.Sprintf("user%06d", r.Intn(keys))), e.ref(), val); err != nil {
					t.Fatal(err)
				}
			}
		})
		before, merges := tr.NumPartitions(), tr.Stats().Merges
		if err := tr.EvictPN(); err != nil {
			t.Fatal(err)
		}
		if tr.Stats().Merges != merges && before+1 <= maxParts {
			t.Fatalf("after %d puts: a merge at %d partitions; collectable %v", done+perPN, before+1, tr.Collectable())
		}
	}
	if tr.Stats().Merges == 0 {
		t.Fatal("the count trigger never fired: the history is too short")
	}
}

// deleteKeys tombstones keys k[from]..k[to-1] of updateRounds in one
// transaction and evicts them.
func deleteKeys(t *testing.T, e *env, tr *Tree, cur []index.Ref, from, to int) {
	t.Helper()
	e.commit(func(tx *txn.Tx) {
		for k := from; k < to; k++ {
			if err := tr.InsertTombstone(tx, []byte(fmt.Sprintf("k%02d", k)), cur[k].RID); err != nil {
				t.Fatal(err)
			}
		}
	})
	if err := tr.EvictPN(); err != nil {
		t.Fatal(err)
	}
}

// scanKeys counts the keys a fresh snapshot's scan of the whole tree returns.
func scanKeys(t *testing.T, e *env, tr *Tree) int {
	t.Helper()
	n, err := scanCount(tr, e, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestDeleteTriggerAtAQuarter: a unique tree of 50 keys whose deletes are
// evicted after the inserts merges all its partitions once its deleted keys
// reach a quarter of the records that merge would keep — 10 against 40 live
// keys — and not at 9 against 41. The merge keeps only the live keys.
func TestDeleteTriggerAtAQuarter(t *testing.T) {
	e := newEnv(1024, 1<<26)
	tr := e.tree(Options{Unique: true, BloomBits: 10})
	cur := updateRounds(t, e, tr, 1, nil)
	deleteKeys(t, e, tr, cur, 0, 9)
	if tr.Stats().Merges != 0 || tr.NumPartitions() != 2 {
		t.Fatalf("9 deleted keys of 50: %d merges, %d partitions", tr.Stats().Merges, tr.NumPartitions())
	}
	deleteKeys(t, e, tr, cur, 9, 10)
	if n, recs := tr.NumPartitions(), tr.Partitions()[0].NumRecords; tr.Stats().Merges != 1 || n != 1 || recs != 40 {
		t.Fatalf("10 deleted keys of 50: %d merges, %d partitions, %d records; want one merge into the 40 live keys", tr.Stats().Merges, n, recs)
	}
	if n := scanKeys(t, e, tr); n != 40 {
		t.Fatalf("a scan after the merge returns %d keys, want 40", n)
	}
}

// TestDeleteTriggerWaitsForHorizon: deletes in a partition that a snapshot
// still open does not wholly see do not count. Eight deletes below the
// horizon and eight above it start no merge, though all sixteen would; the
// first eviction after the snapshot closes merges.
func TestDeleteTriggerWaitsForHorizon(t *testing.T) {
	e := newEnv(1024, 1<<26)
	tr := e.tree(Options{Unique: true, BloomBits: 10})
	cur := updateRounds(t, e, tr, 1, nil)
	deleteKeys(t, e, tr, cur, 0, 8)
	pin := e.mgr.Begin()
	deleteKeys(t, e, tr, cur, 8, 16)
	if tr.Stats().Merges != 0 || tr.NumPartitions() != 3 {
		t.Fatalf("under the snapshot: %d merges, %d partitions", tr.Stats().Merges, tr.NumPartitions())
	}
	e.mgr.Commit(pin)
	evictFresh(t, e, tr, "x", 1)
	if n, recs := tr.NumPartitions(), tr.Partitions()[0].NumRecords; tr.Stats().Merges != 1 || n != 1 || recs != 35 {
		t.Fatalf("after the snapshot closed: %d merges, %d partitions, %d records", tr.Stats().Merges, n, recs)
	}
}

// TestMergeDropsTombstonesUnderPNWrites: a long-running writer inserts 20
// keys, with its older timestamp, after they were deleted and the deletes
// evicted. A merge of every partition while its records sit in P_N drops
// those tombstones, and the rows they deleted: every reader meets the
// writer's records first. No merge is due then, nor after the eviction that
// persists the writer's records, and a lookup and a scan both return the
// writer's rows.
func TestMergeDropsTombstonesUnderPNWrites(t *testing.T) {
	e := newEnv(1024, 1<<26)
	tr := e.tree(Options{Unique: true, BloomBits: 10})
	cur := updateRounds(t, e, tr, 1, nil)
	w := e.mgr.Begin()
	deleteKeys(t, e, tr, cur, 0, 20)
	for k := 0; k < 20; k++ {
		cur[k] = e.ref()
		if err := tr.InsertRegular(w, []byte(fmt.Sprintf("k%02d", k)), cur[k]); err != nil {
			t.Fatal(err)
		}
	}
	e.mgr.Commit(w)
	reads := func(when string) {
		t.Helper()
		r := e.mgr.Begin()
		defer e.mgr.Commit(r)
		for k := 0; k < 20; k++ {
			key := []byte(fmt.Sprintf("k%02d", k))
			lookupIsPointScan(t, tr, r, key)
			if got := lookupRIDs(t, tr, r, key); len(got) != 1 || got[0] != cur[k].RID {
				t.Fatalf("%s: key %s returns %v, want the writer's %v", when, key, got, cur[k].RID)
			}
		}
		if n := scanKeys(t, e, tr); n != 50 {
			t.Fatalf("%s: a scan returns %d keys, want 50", when, n)
		}
	}
	reads("before the merge")
	if err := tr.MergePartitions(); err != nil {
		t.Fatal(err)
	}
	if n, recs := tr.NumPartitions(), tr.Partitions()[0].NumRecords; n != 1 || recs != 30 || tr.NeedsMerge() {
		t.Fatalf("after the merge: %d partitions, %d records, merge due %v; want the 30 keys not deleted, no merge due", n, recs, tr.NeedsMerge())
	}
	reads("after the merge")
	if err := tr.EvictPN(); err != nil {
		t.Fatal(err)
	}
	if tr.Stats().Merges != 1 || tr.NumPartitions() != 2 {
		t.Fatalf("after evicting the writer's records: %d merges, %d partitions", tr.Stats().Merges, tr.NumPartitions())
	}
	reads("after the eviction")
}
