package mvpbt

import (
	"bytes"
	"fmt"
	"testing"

	"mvpbt/internal/buffer"
	"mvpbt/internal/index"
	"mvpbt/internal/index/part"
	"mvpbt/internal/sfile"
	"mvpbt/internal/simclock"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
	"mvpbt/internal/txn"
	"mvpbt/internal/util"
)

type env struct {
	dev  *ssd.Device
	pool *buffer.Pool
	mgr  *txn.Manager
	fm   *sfile.Manager
	pbuf *part.PartitionBuffer
	rid  uint64
}

func newEnv(frames, pbufLimit int) *env {
	dev := ssd.New(simclock.New(), ssd.IntelP3600)
	return &env{
		dev:  dev,
		pool: buffer.New(frames),
		mgr:  txn.NewManager(),
		fm:   sfile.NewManager(dev),
		pbuf: part.NewPartitionBuffer(pbufLimit),
	}
}

func (e *env) tree(opts Options) *Tree {
	if opts.Name == "" {
		opts.Name = "test"
	}
	return New(e.pool, e.fm.Create(opts.Name, sfile.ClassIndex), e.pbuf, e.mgr, opts)
}

// nextRID fabricates a unique tuple-version recordID (the tests have no
// real heap; MV-PBT never dereferences rids).
func (e *env) nextRID() storage.RecordID {
	e.rid++
	return storage.RecordID{Page: storage.NewPageID(999, e.rid), Slot: 0}
}

func (e *env) ref() index.Ref { return index.Ref{RID: e.nextRID()} }

func (e *env) commit(fn func(tx *txn.Tx)) *txn.Tx {
	tx := e.mgr.Begin()
	fn(tx)
	e.mgr.Commit(tx)
	return tx
}

// lookupIsPointScan asserts that a lookup is the range scan of its one key:
// Lookup(key) and Scan(key, key+"\x00") hand out the same entries in the same
// order.
func lookupIsPointScan(t *testing.T, tr *Tree, tx *txn.Tx, key []byte) {
	t.Helper()
	var point, ranged []string
	collect := func(out *[]string) func(index.Entry) bool {
		return func(e index.Entry) bool {
			*out = append(*out, fmt.Sprintf("%s %v %q", e.Key, e.Ref, e.Val))
			return true
		}
	}
	if err := tr.Lookup(tx, key, collect(&point)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Scan(tx, key, append(bytes.Clone(key), 0), collect(&ranged)); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(point) != fmt.Sprint(ranged) {
		t.Fatalf("key %q: Lookup sees %v, Scan of [key, key+\"\\x00\") sees %v", key, point, ranged)
	}
}

// lookupRIDs collects the rids visible for key.
func lookupRIDs(t *testing.T, tr *Tree, tx *txn.Tx, key []byte) []storage.RecordID {
	t.Helper()
	var out []storage.RecordID
	if err := tr.Lookup(tx, key, func(e index.Entry) bool {
		out = append(out, e.Ref.RID)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestInsertLookup(t *testing.T) {
	e := newEnv(64, 1<<20)
	tr := e.tree(Options{})
	ref := e.ref()
	e.commit(func(tx *txn.Tx) { tr.InsertRegular(tx, []byte("k1"), ref) })
	r := e.mgr.Begin()
	defer e.mgr.Commit(r)
	rids := lookupRIDs(t, tr, r, []byte("k1"))
	if len(rids) != 1 || rids[0] != ref.RID {
		t.Fatalf("lookup got %v want %v", rids, ref.RID)
	}
	if len(lookupRIDs(t, tr, r, []byte("nope"))) != 0 {
		t.Fatal("absent key matched")
	}
}

func TestUncommittedAndAbortedInvisible(t *testing.T) {
	e := newEnv(64, 1<<20)
	tr := e.tree(Options{})
	w := e.mgr.Begin()
	ref := e.ref()
	tr.InsertRegular(w, []byte("k"), ref)
	r := e.mgr.Begin()
	if len(lookupRIDs(t, tr, r, []byte("k"))) != 0 {
		t.Fatal("uncommitted visible to other tx")
	}
	if got := lookupRIDs(t, tr, w, []byte("k")); len(got) != 1 {
		t.Fatal("own insert invisible")
	}
	e.mgr.Abort(w)
	e.mgr.Commit(r)
	r2 := e.mgr.Begin()
	defer e.mgr.Commit(r2)
	if len(lookupRIDs(t, tr, r2, []byte("k"))) != 0 {
		t.Fatal("aborted insert visible")
	}
}

func TestReplacementSupersedes(t *testing.T) {
	e := newEnv(64, 1<<20)
	tr := e.tree(Options{})
	v0, v1 := e.ref(), e.ref()
	e.commit(func(tx *txn.Tx) { tr.InsertRegular(tx, []byte("t"), v0) })
	e.commit(func(tx *txn.Tx) { tr.InsertReplacement(tx, []byte("t"), v1, v0.RID) })
	r := e.mgr.Begin()
	defer e.mgr.Commit(r)
	rids := lookupRIDs(t, tr, r, []byte("t"))
	if len(rids) != 1 || rids[0] != v1.RID {
		t.Fatalf("replacement not superseding: %v", rids)
	}
}

func TestHTAPLongReaderSeesOldVersion(t *testing.T) {
	// Figure 1: TXR keeps seeing t.v0 while TXU1..TXU3 commit successors.
	e := newEnv(64, 1<<20)
	tr := e.tree(Options{})
	v := []index.Ref{e.ref(), e.ref(), e.ref(), e.ref()}
	e.commit(func(tx *txn.Tx) { tr.InsertRegular(tx, []byte("t"), v[0]) })
	long := e.mgr.Begin()
	prev := v[0]
	for i := 1; i <= 3; i++ {
		e.commit(func(tx *txn.Tx) { tr.InsertReplacement(tx, []byte("t"), v[i], prev.RID) })
		prev = v[i]
	}
	if rids := lookupRIDs(t, tr, long, []byte("t")); len(rids) != 1 || rids[0] != v[0].RID {
		t.Fatalf("long reader got %v want v0 %v", rids, v[0].RID)
	}
	fresh := e.mgr.Begin()
	if rids := lookupRIDs(t, tr, fresh, []byte("t")); len(rids) != 1 || rids[0] != v[3].RID {
		t.Fatalf("fresh reader got %v want v3 %v", rids, v[3].RID)
	}
	e.mgr.Commit(long)
	e.mgr.Commit(fresh)
}

func TestTransitiveSuppression(t *testing.T) {
	// Three and more versions: the middle replacement is itself suppressed
	// but must still extinguish its predecessor (the Algorithm 3 fix).
	e := newEnv(64, 1<<20)
	tr := e.tree(Options{})
	refs := make([]index.Ref, 8)
	for i := range refs {
		refs[i] = e.ref()
	}
	e.commit(func(tx *txn.Tx) { tr.InsertRegular(tx, []byte("c"), refs[0]) })
	for i := 1; i < len(refs); i++ {
		e.commit(func(tx *txn.Tx) { tr.InsertReplacement(tx, []byte("c"), refs[i], refs[i-1].RID) })
	}
	r := e.mgr.Begin()
	defer e.mgr.Commit(r)
	rids := lookupRIDs(t, tr, r, []byte("c"))
	if len(rids) != 1 || rids[0] != refs[7].RID {
		t.Fatalf("transitive suppression broken: %v", rids)
	}
}

func TestKeyUpdate(t *testing.T) {
	// Figure 10/11: UPDATE r SET a=1 WHERE a=7.
	e := newEnv(64, 1<<20)
	tr := e.tree(Options{})
	v1, v2 := e.ref(), e.ref()
	k7, k1 := []byte("key-7"), []byte("key-1")
	e.commit(func(tx *txn.Tx) { tr.InsertRegular(tx, k7, v1) })
	before := e.mgr.Begin()
	e.commit(func(tx *txn.Tx) { tr.InsertKeyUpdate(tx, k7, k1, v2, v1.RID) })
	after := e.mgr.Begin()
	defer e.mgr.Commit(after)
	defer e.mgr.Commit(before)
	if rids := lookupRIDs(t, tr, after, k7); len(rids) != 0 {
		t.Fatalf("old key still visible after key update: %v", rids)
	}
	if rids := lookupRIDs(t, tr, after, k1); len(rids) != 1 || rids[0] != v2.RID {
		t.Fatalf("new key wrong: %v", rids)
	}
	// The older snapshot still sees the old key and NOT the new one.
	if rids := lookupRIDs(t, tr, before, k7); len(rids) != 1 || rids[0] != v1.RID {
		t.Fatalf("old snapshot lost old key: %v", rids)
	}
	if rids := lookupRIDs(t, tr, before, k1); len(rids) != 0 {
		t.Fatalf("old snapshot sees new key: %v", rids)
	}
}

func TestTombstone(t *testing.T) {
	e := newEnv(64, 1<<20)
	tr := e.tree(Options{})
	v0 := e.ref()
	e.commit(func(tx *txn.Tx) { tr.InsertRegular(tx, []byte("d"), v0) })
	before := e.mgr.Begin()
	e.commit(func(tx *txn.Tx) { tr.InsertTombstone(tx, []byte("d"), v0.RID) })
	after := e.mgr.Begin()
	defer e.mgr.Commit(after)
	defer e.mgr.Commit(before)
	if rids := lookupRIDs(t, tr, after, []byte("d")); len(rids) != 0 {
		t.Fatalf("deleted tuple visible: %v", rids)
	}
	if rids := lookupRIDs(t, tr, before, []byte("d")); len(rids) != 1 {
		t.Fatalf("pre-delete snapshot lost tuple: %v", rids)
	}
}

func TestSameTxMultipleUpdates(t *testing.T) {
	e := newEnv(64, 1<<20)
	tr := e.tree(Options{})
	v0, v1, v2 := e.ref(), e.ref(), e.ref()
	e.commit(func(tx *txn.Tx) {
		tr.InsertRegular(tx, []byte("m"), v0)
		tr.InsertReplacement(tx, []byte("m"), v1, v0.RID)
		tr.InsertReplacement(tx, []byte("m"), v2, v1.RID)
	})
	r := e.mgr.Begin()
	defer e.mgr.Commit(r)
	rids := lookupRIDs(t, tr, r, []byte("m"))
	if len(rids) != 1 || rids[0] != v2.RID {
		t.Fatalf("same-tx chain wrong: %v", rids)
	}
}

func TestVisibilityAcrossEvictedPartitions(t *testing.T) {
	// All of the above must hold when the records live in different
	// persisted partitions.
	e := newEnv(256, 1<<20)
	tr := e.tree(Options{BloomBits: 10})
	v0, v1, v2 := e.ref(), e.ref(), e.ref()
	e.commit(func(tx *txn.Tx) { tr.InsertRegular(tx, []byte("t"), v0) })
	tr.EvictPN() // v0 → P0
	long := e.mgr.Begin()
	e.commit(func(tx *txn.Tx) { tr.InsertReplacement(tx, []byte("t"), v1, v0.RID) })
	tr.EvictPN() // v1 → P1
	e.commit(func(tx *txn.Tx) { tr.InsertReplacement(tx, []byte("t"), v2, v1.RID) })
	// v2 in PN. Three locations, one chain.
	if tr.NumPartitions() != 2 {
		t.Fatalf("partitions=%d want 2", tr.NumPartitions())
	}
	fresh := e.mgr.Begin()
	if rids := lookupRIDs(t, tr, fresh, []byte("t")); len(rids) != 1 || rids[0] != v2.RID {
		t.Fatalf("fresh reader across partitions got %v", rids)
	}
	if rids := lookupRIDs(t, tr, long, []byte("t")); len(rids) != 1 || rids[0] != v0.RID {
		t.Fatalf("long reader across partitions got %v", rids)
	}
	e.mgr.Commit(long)
	e.mgr.Commit(fresh)
}

func TestEvictionOfUncommittedThenCommit(t *testing.T) {
	e := newEnv(256, 1<<20)
	tr := e.tree(Options{})
	w := e.mgr.Begin()
	ref := e.ref()
	tr.InsertRegular(w, []byte("u"), ref)
	tr.EvictPN() // record persisted while its tx is in progress
	r1 := e.mgr.Begin()
	if len(lookupRIDs(t, tr, r1, []byte("u"))) != 0 {
		t.Fatal("in-progress record visible from partition")
	}
	e.mgr.Commit(w)
	e.mgr.Commit(r1)
	r2 := e.mgr.Begin()
	defer e.mgr.Commit(r2)
	if rids := lookupRIDs(t, tr, r2, []byte("u")); len(rids) != 1 {
		t.Fatal("committed record lost after early eviction")
	}
}

func TestUniqueLookupStopsEarly(t *testing.T) {
	e := newEnv(64, 1<<20)
	tr := e.tree(Options{Unique: true})
	v0, v1 := e.ref(), e.ref()
	e.commit(func(tx *txn.Tx) { tr.InsertRegular(tx, []byte("u"), v0) })
	e.commit(func(tx *txn.Tx) { tr.InsertReplacement(tx, []byte("u"), v1, v0.RID) })
	r := e.mgr.Begin()
	defer e.mgr.Commit(r)
	calls := 0
	tr.Lookup(r, []byte("u"), func(e index.Entry) bool {
		calls++
		return true
	})
	if calls != 1 {
		t.Fatalf("unique lookup emitted %d entries", calls)
	}
}

func TestScanRangeOrderAndVisibility(t *testing.T) {
	e := newEnv(256, 1<<20)
	tr := e.tree(Options{})
	refs := map[string]index.Ref{}
	e.commit(func(tx *txn.Tx) {
		for i := 0; i < 100; i++ {
			k := fmt.Sprintf("k%03d", i)
			refs[k] = e.ref()
			tr.InsertRegular(tx, []byte(k), refs[k])
		}
	})
	tr.EvictPN()
	// Update half the tuples.
	e.commit(func(tx *txn.Tx) {
		for i := 0; i < 100; i += 2 {
			k := fmt.Sprintf("k%03d", i)
			nr := e.ref()
			tr.InsertReplacement(tx, []byte(k), nr, refs[k].RID)
			refs[k] = nr
		}
	})
	r := e.mgr.Begin()
	defer e.mgr.Commit(r)
	var keys []string
	err := tr.Scan(r, []byte("k010"), []byte("k020"), func(en index.Entry) bool {
		k := string(en.Key)
		keys = append(keys, k)
		if en.Ref.RID != refs[k].RID {
			t.Fatalf("key %s wrong version", k)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 10 {
		t.Fatalf("scan returned %d keys: %v", len(keys), keys)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("scan out of order: %v", keys)
		}
	}
}

func TestScanAllMatterReturnsCandidates(t *testing.T) {
	e := newEnv(64, 1<<20)
	tr := e.tree(Options{})
	v0, v1 := e.ref(), e.ref()
	e.commit(func(tx *txn.Tx) { tr.InsertRegular(tx, []byte("x"), v0) })
	e.commit(func(tx *txn.Tx) { tr.InsertReplacement(tx, []byte("x"), v1, v0.RID) })
	n := 0
	tr.ScanAllMatter([]byte("a"), []byte("z"), func(index.Entry) bool { n++; return true })
	if n != 2 {
		t.Fatalf("candidates=%d want 2 (no visibility filtering)", n)
	}
}

func TestEvictionGCDropsObsolete(t *testing.T) {
	e := newEnv(256, 1<<22)
	gcTree := e.tree(Options{Name: "gc"})
	noGCTree := e.tree(Options{Name: "nogc", DisableGC: true})
	fill := func(tr *Tree) {
		prev := map[int]index.Ref{}
		for i := 0; i < 50; i++ {
			e.commit(func(tx *txn.Tx) {
				for k := 0; k < 20; k++ {
					key := []byte(fmt.Sprintf("t%02d", k))
					nr := e.ref()
					if p, ok := prev[k]; ok {
						tr.InsertReplacement(tx, key, nr, p.RID)
					} else {
						tr.InsertRegular(tx, key, nr)
					}
					prev[k] = nr
				}
			})
		}
		tr.EvictPN()
	}
	fill(gcTree)
	fill(noGCTree)
	g, n := gcTree.Partitions()[0], noGCTree.Partitions()[0]
	// With no active snapshots, only the newest record per chain (plus
	// nothing else) survives GC: 20 records vs 1000.
	if g.NumRecords >= n.NumRecords/10 {
		t.Fatalf("eviction GC ineffective: %d vs %d records", g.NumRecords, n.NumRecords)
	}
	if gcTree.Stats().GCEvict == 0 {
		t.Fatal("GCEvict counter zero")
	}
	// Correctness after GC: newest version still visible.
	r := e.mgr.Begin()
	defer e.mgr.Commit(r)
	for k := 0; k < 20; k++ {
		if rids := lookupRIDs(t, gcTree, r, []byte(fmt.Sprintf("t%02d", k))); len(rids) != 1 {
			t.Fatalf("tuple %d lost after GC: %v", k, rids)
		}
	}
}

func TestEvictionGCRespectsLongReader(t *testing.T) {
	e := newEnv(256, 1<<22)
	tr := e.tree(Options{})
	v0 := e.ref()
	e.commit(func(tx *txn.Tx) { tr.InsertRegular(tx, []byte("t"), v0) })
	long := e.mgr.Begin() // pins horizon
	prev := v0
	for i := 0; i < 10; i++ {
		e.commit(func(tx *txn.Tx) {
			nr := e.ref()
			tr.InsertReplacement(tx, []byte("t"), nr, prev.RID)
			prev = nr
		})
	}
	tr.EvictPN()
	if rids := lookupRIDs(t, tr, long, []byte("t")); len(rids) != 1 || rids[0] != v0.RID {
		t.Fatalf("GC during eviction destroyed version visible to long reader: %v", rids)
	}
	e.mgr.Commit(long)
}

func TestTombstoneChainFullyInPNVanishes(t *testing.T) {
	e := newEnv(64, 1<<22)
	tr := e.tree(Options{})
	v0 := e.ref()
	e.commit(func(tx *txn.Tx) { tr.InsertRegular(tx, []byte("gone"), v0) })
	e.commit(func(tx *txn.Tx) { tr.InsertTombstone(tx, []byte("gone"), v0.RID) })
	tr.EvictPN()
	// Both records were below the horizon and the chain began in PN: the
	// partition should contain nothing (or not exist at all).
	total := 0
	for _, p := range tr.Partitions() {
		total += p.NumRecords
	}
	if total != 0 {
		t.Fatalf("fully-dead chain left %d records", total)
	}
}

func TestTombstoneSuppressingOlderPartitionSurvivesGC(t *testing.T) {
	e := newEnv(256, 1<<22)
	tr := e.tree(Options{})
	v0 := e.ref()
	e.commit(func(tx *txn.Tx) { tr.InsertRegular(tx, []byte("t"), v0) })
	tr.EvictPN() // regular in P0
	e.commit(func(tx *txn.Tx) { tr.InsertTombstone(tx, []byte("t"), v0.RID) })
	tr.EvictPN() // tombstone must survive into P1 to suppress P0
	r := e.mgr.Begin()
	defer e.mgr.Commit(r)
	if rids := lookupRIDs(t, tr, r, []byte("t")); len(rids) != 0 {
		t.Fatalf("tombstone lost during eviction GC; tuple resurrected: %v", rids)
	}
}

func TestPhase1MarkingAndPhase2Sweep(t *testing.T) {
	e := newEnv(256, 1<<26)
	tr := e.tree(Options{})
	// Insert/delete/re-insert cycles: the superseded REGULAR records are
	// pure matter and thus phase-1 markable (replacements are not — their
	// anti-matter is still needed, §4.6).
	cur := map[int]index.Ref{}
	for round := 0; round < 40; round++ {
		e.commit(func(tx *txn.Tx) {
			for k := 0; k < 30; k++ {
				key := []byte(fmt.Sprintf("t%02d", k))
				if p, ok := cur[k]; ok {
					tr.InsertTombstone(tx, key, p.RID)
					delete(cur, k)
				} else {
					nr := e.ref()
					tr.InsertRegular(tx, key, nr)
					cur[k] = nr
				}
			}
		})
	}
	// End on a live generation.
	if len(cur) == 0 {
		e.commit(func(tx *txn.Tx) {
			for k := 0; k < 30; k++ {
				nr := e.ref()
				tr.InsertRegular(tx, []byte(fmt.Sprintf("t%02d", k)), nr)
				cur[k] = nr
			}
		})
	}
	r := e.mgr.Begin()
	tr.Scan(r, []byte("t00"), []byte("t99"), func(index.Entry) bool { return true })
	e.mgr.Commit(r)
	st := tr.Stats()
	if st.GCMarked == 0 {
		t.Fatal("phase 1 marked nothing on a heavily versioned scan")
	}
	// More modifications trigger the phase-2 sweep.
	before := tr.PNBytes()
	e.commit(func(tx *txn.Tx) {
		for k := 0; k < 30; k++ {
			key := []byte(fmt.Sprintf("t%02d", k))
			nr := e.ref()
			tr.InsertReplacement(tx, key, nr, cur[k].RID)
			cur[k] = nr
		}
	})
	if st2 := tr.Stats(); st2.GCSweptPN == 0 {
		t.Fatal("phase 2 swept nothing")
	}
	if tr.PNBytes() >= before {
		t.Fatalf("sweep did not shrink PN: %d -> %d", before, tr.PNBytes())
	}
	// Correctness preserved.
	r2 := e.mgr.Begin()
	defer e.mgr.Commit(r2)
	for k := 0; k < 30; k++ {
		key := []byte(fmt.Sprintf("t%02d", k))
		if rids := lookupRIDs(t, tr, r2, key); len(rids) != 1 || rids[0] != cur[k].RID {
			t.Fatalf("tuple %d wrong after sweep: %v want %v", k, rids, cur[k].RID)
		}
	}
}

func TestPhase1NeverMarksAntiMatterCarriers(t *testing.T) {
	// A replacement record superseded below the horizon still carries the
	// anti-matter that extinguishes an on-disk predecessor; phase 1 must
	// leave it alone or the predecessor would resurrect (§4.6).
	e := newEnv(256, 1<<26)
	tr := e.tree(Options{})
	v0, v1, v2 := e.ref(), e.ref(), e.ref()
	e.commit(func(tx *txn.Tx) { tr.InsertRegular(tx, []byte("t"), v0) })
	tr.EvictPN() // regular on disk
	e.commit(func(tx *txn.Tx) { tr.InsertReplacement(tx, []byte("t"), v1, v0.RID) })
	e.commit(func(tx *txn.Tx) { tr.InsertReplacement(tx, []byte("t"), v2, v1.RID) })
	// Scan marks; inserts trigger sweeps. The v1 replacement is suppressed
	// by v2 but must survive in PN.
	for i := 0; i < 5; i++ {
		r := e.mgr.Begin()
		tr.Scan(r, []byte("s"), []byte("u"), func(index.Entry) bool { return true })
		e.mgr.Commit(r)
	}
	r := e.mgr.Begin()
	defer e.mgr.Commit(r)
	rids := lookupRIDs(t, tr, r, []byte("t"))
	if len(rids) != 1 || rids[0] != v2.RID {
		t.Fatalf("resurrection or loss: %v (want only %v)", rids, v2.RID)
	}
}

func TestBloomFilterStats(t *testing.T) {
	e := newEnv(256, 1<<20)
	tr := e.tree(Options{BloomBits: 10, Unique: true})
	e.commit(func(tx *txn.Tx) {
		for i := 0; i < 1000; i++ {
			tr.InsertRegular(tx, []byte(fmt.Sprintf("p0-%04d", i)), e.ref())
		}
	})
	tr.EvictPN()
	e.commit(func(tx *txn.Tx) {
		for i := 0; i < 1000; i++ {
			tr.InsertRegular(tx, []byte(fmt.Sprintf("p1-%04d", i)), e.ref())
		}
	})
	tr.EvictPN()
	r := e.mgr.Begin()
	defer e.mgr.Commit(r)
	// Lookups for p0 keys consult the newest partition first; its bloom
	// filter must skip it (a negative), then partition 0 matches.
	for i := 0; i < 200; i++ {
		lookupRIDs(t, tr, r, []byte(fmt.Sprintf("p0-%04d", i)))
	}
	st := tr.Stats()
	if st.Bloom.Positives == 0 {
		t.Fatalf("no filter positives: %+v", st.Bloom)
	}
	if st.Bloom.Negatives == 0 {
		t.Fatalf("no filter negatives (partition skipping broken): %+v", st.Bloom)
	}
}

func TestPartitionBufferDrivesEviction(t *testing.T) {
	const limit = 16 << 10 // tiny partition buffer
	e := newEnv(1024, limit)
	tr := e.tree(Options{})
	e.commit(func(tx *txn.Tx) {
		for i := 0; i < 2000; i++ {
			tr.InsertRegular(tx, []byte(fmt.Sprintf("k%06d", i)), e.ref())
		}
	})
	if tr.NumPartitions() == 0 {
		t.Fatal("partition buffer never evicted")
	}
	if e.pbuf.Used() > limit {
		t.Fatalf("buffer over limit: %d > %d", e.pbuf.Used(), limit)
	}
	r := e.mgr.Begin()
	defer e.mgr.Commit(r)
	for i := 0; i < 2000; i += 191 {
		if rids := lookupRIDs(t, tr, r, []byte(fmt.Sprintf("k%06d", i))); len(rids) != 1 {
			t.Fatalf("key %d lost across auto-evictions", i)
		}
	}
}

// TestPartitionBufferTotalIsPNBytes: the buffer's running total is the sum
// of its trees' PNBytes after every kind of change — inserts, phase-2
// sweeps, explicit evictions and the evictions the buffer runs itself.
func TestPartitionBufferTotalIsPNBytes(t *testing.T) {
	e := newEnv(1024, 32<<10)
	trees := []*Tree{e.tree(Options{Name: "a"}), e.tree(Options{Name: "b", Unique: true})}
	check := func(when string) {
		t.Helper()
		sum := 0
		for _, tr := range trees {
			sum += tr.PNBytes()
		}
		if e.pbuf.Used() != sum {
			t.Fatalf("%s: buffer total %d, PNBytes sum %d", when, e.pbuf.Used(), sum)
		}
	}
	refs := make([]index.Ref, 40)
	for round := 0; round < 30; round++ {
		e.commit(func(tx *txn.Tx) {
			for k := range refs {
				key, ref := []byte(fmt.Sprintf("k%02d", k)), e.ref()
				if round%2 == 0 { // deleted and inserted again: phase 1 marks the old
					trees[0].InsertRegular(tx, key, ref)
				} else {
					trees[0].InsertTombstone(tx, key, refs[k].RID)
				}
				// Distinct keys: a unique tree's overwrites leave P_N at insert.
				trees[1].InsertRegularVal(tx, fmt.Appendf(nil, "%s-%02d", key, round), ref, []byte("value"))
				refs[k] = ref
			}
		})
		check(fmt.Sprintf("round %d", round))
		if round%3 == 0 { // phase 1 marks what the next inserts sweep
			r := e.mgr.Begin()
			trees[0].Scan(r, nil, nil, func(index.Entry) bool { return true })
			e.mgr.Commit(r)
		}
		if round%7 == 0 {
			if err := trees[round%2].EvictPN(); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("eviction in round %d", round))
		}
	}
	if trees[0].Stats().GCSweptPN == 0 || e.pbuf.Evictions() == 0 {
		t.Fatalf("swept %d, evicted %d: the history exercised too little", trees[0].Stats().GCSweptPN, e.pbuf.Evictions())
	}
	for _, tr := range trees {
		if err := tr.EvictPN(); err != nil {
			t.Fatal(err)
		}
	}
	check("after the last evictions")
	if e.pbuf.Used() != 0 {
		t.Fatalf("buffer total %d with every P_N evicted", e.pbuf.Used())
	}
}

// codecRecords is every record shape the codec has: each type, marked and
// not, with and without an anti-matter RID; matter records carry a value.
func codecRecords() []Record {
	var out []Record
	for _, typ := range []RecType{Regular, Replacement, Anti, Tombstone} {
		for _, gc := range []bool{false, true} {
			for _, old := range []storage.RecordID{{}, {Page: storage.NewPageID(7, 99), Slot: 3}} {
				r := Record{Type: typ, TS: 123456, OldRID: old}
				if gc {
					r.MarkGC()
				}
				if r.Matter() {
					r.Ref = index.Ref{RID: storage.RecordID{Page: storage.NewPageID(2, 5), Slot: 9}, VID: 42}
					r.Val = []byte("inline-value")
				}
				out = append(out, r)
			}
		}
	}
	return out
}

// TestRecordCodecRoundTrip: an encoded record decodes to itself and is
// recordLen bytes long, and — bodies are read where they lie in a page
// image — every truncation of it, and a value length rewritten to run past
// its end, is an error.
func TestRecordCodecRoundTrip(t *testing.T) {
	for _, r := range codecRecords() {
		enc := encodeRecord(nil, &r)
		if n := recordLen(&r); n != len(enc) {
			t.Fatalf("%+v: recordLen %d, encoded %d bytes", r, n, len(enc))
		}
		got, err := decodeRecord(enc)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != r.Type || got.GCMarked() != r.GCMarked() || got.TS != r.TS ||
			got.Ref != r.Ref || got.OldRID != r.OldRID || !bytes.Equal(got.Val, r.Val) {
			t.Fatalf("round trip: %+v != %+v", got, r)
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, err := decodeRecord(enc[:cut]); err == nil {
				t.Fatalf("%+v: accepted the body cut to %d of %d bytes", r, cut, len(enc))
			}
		}
		if r.Val != nil {
			long := bytes.Clone(enc)
			long[len(long)-len(r.Val)-1] = 0x7f // the value's one-byte length prefix
			if _, err := decodeRecord(long); err == nil {
				t.Fatalf("%+v: accepted a value length past the end of the body", r)
			}
		}
	}
}

// FuzzDecodeRecord: any byte string is a record or an error, never a panic.
//
//	go test -fuzz=FuzzDecodeRecord -fuzztime=30s ./internal/index/mvpbt/
func FuzzDecodeRecord(f *testing.F) {
	for _, r := range codecRecords() {
		f.Add(encodeRecord(nil, &r))
	}
	f.Add([]byte{byte(Regular) | flagVal, 1, 0x80})
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := decodeRecord(b)
		if err == nil && len(r.Val) > len(b) {
			t.Fatalf("value of %d bytes out of a %d-byte body", len(r.Val), len(b))
		}
	})
}

// TestRandomizedModel drives MV-PBT with a random committed history of
// inserts, key/non-key updates and deletes across many tuples, takes
// snapshots at random points, forces random evictions, and verifies that
// full scans under every held snapshot return exactly the model's visible
// set.
func TestRandomizedModel(t *testing.T) {
	for _, gc := range []bool{true, false} {
		t.Run(fmt.Sprintf("gc=%v", gc), func(t *testing.T) {
			e := newEnv(1024, 1<<26)
			tr := e.tree(Options{BloomBits: 10, DisableGC: !gc})
			r := util.NewRand(2024)

			type version struct {
				ts      txn.TxID
				key     string
				ref     index.Ref
				deleted bool
			}
			// Per-tuple history, newest last.
			hist := map[int][]version{}
			keyOf := func(k int) string { return fmt.Sprintf("key-%03d", k) }

			type snap struct {
				tx *txn.Tx
			}
			var snaps []snap

			const tuples = 60
			for step := 0; step < 3000; step++ {
				id := r.Intn(tuples)
				h := hist[id]
				live := len(h) > 0 && !h[len(h)-1].deleted
				tx := e.mgr.Begin()
				switch {
				case !live:
					ref := e.ref()
					key := keyOf(id)
					tr.InsertRegular(tx, []byte(key), ref)
					hist[id] = append(h, version{ts: tx.ID, key: key, ref: ref})
				case r.Intn(10) == 0: // delete
					last := h[len(h)-1]
					tr.InsertTombstone(tx, []byte(last.key), last.ref.RID)
					hist[id] = append(h, version{ts: tx.ID, key: last.key, deleted: true})
				case r.Intn(4) == 0: // key update: move to a sibling key
					last := h[len(h)-1]
					nk := keyOf(r.Intn(tuples))
					ref := e.ref()
					tr.InsertKeyUpdate(tx, []byte(last.key), []byte(nk), ref, last.ref.RID)
					hist[id] = append(h, version{ts: tx.ID, key: nk, ref: ref})
				default: // non-key update
					last := h[len(h)-1]
					ref := e.ref()
					tr.InsertReplacement(tx, []byte(last.key), ref, last.ref.RID)
					hist[id] = append(h, version{ts: tx.ID, key: last.key, ref: ref})
				}
				e.mgr.Commit(tx)
				rd := e.mgr.Begin()
				lookupIsPointScan(t, tr, rd, []byte(keyOf(id)))
				e.mgr.Commit(rd)

				if r.Intn(200) == 0 && len(snaps) < 6 {
					snaps = append(snaps, snap{tx: e.mgr.Begin()})
				}
				if r.Intn(400) == 0 {
					if err := tr.EvictPN(); err != nil {
						t.Fatal(err)
					}
				}
			}
			snaps = append(snaps, snap{tx: e.mgr.Begin()})

			for si, s := range snaps {
				want := map[storage.RecordID]string{}
				for _, h := range hist {
					// Newest version visible to the snapshot wins.
					for i := len(h) - 1; i >= 0; i-- {
						if s.tx.Sees(h[i].ts) {
							if !h[i].deleted {
								want[h[i].ref.RID] = h[i].key
							}
							break
						}
					}
				}
				got := map[storage.RecordID]string{}
				err := tr.Scan(s.tx, []byte("key-"), []byte("key-~"), func(en index.Entry) bool {
					if _, dup := got[en.Ref.RID]; dup {
						t.Fatalf("snapshot %d: duplicate rid %v", si, en.Ref.RID)
					}
					got[en.Ref.RID] = string(en.Key)
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("snapshot %d: got %d visible, want %d", si, len(got), len(want))
				}
				for rid, key := range want {
					if got[rid] != key {
						t.Fatalf("snapshot %d: rid %v got key %q want %q", si, rid, got[rid], key)
					}
				}
			}
			for _, s := range snaps {
				e.mgr.Commit(s.tx)
			}
		})
	}
}

func TestScanAfterManyEvictionsMatchesModel(t *testing.T) {
	// Same model as above but with eviction after every batch, exercising
	// cross-partition suppression heavily.
	e := newEnv(2048, 1<<26)
	tr := e.tree(Options{BloomBits: 10})
	cur := map[int]index.Ref{}
	for round := 0; round < 30; round++ {
		e.commit(func(tx *txn.Tx) {
			for k := 0; k < 40; k++ {
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
		if err := tr.EvictPN(); err != nil {
			t.Fatal(err)
		}
	}
	r := e.mgr.Begin()
	defer e.mgr.Commit(r)
	seen := map[string]storage.RecordID{}
	tr.Scan(r, []byte("t00"), []byte("t99"), func(en index.Entry) bool {
		if _, dup := seen[string(en.Key)]; dup {
			t.Fatalf("duplicate key %q in scan", en.Key)
		}
		seen[string(en.Key)] = en.Ref.RID
		return true
	})
	if len(seen) != 40 {
		t.Fatalf("scan found %d tuples, want 40", len(seen))
	}
	for k := 0; k < 40; k++ {
		key := fmt.Sprintf("t%02d", k)
		if seen[key] != cur[k].RID {
			t.Fatalf("tuple %s resolved to stale version", key)
		}
	}
}

func TestIndexOnlyNoHeapAccess(t *testing.T) {
	// The defining property (§4.4): visibility checking costs no base
	// table I/O. The only device traffic during lookups is (possibly)
	// index partition reads.
	e := newEnv(4096, 1<<20)
	tr := e.tree(Options{BloomBits: 10})
	e.commit(func(tx *txn.Tx) {
		for i := 0; i < 5000; i++ {
			tr.InsertRegular(tx, []byte(fmt.Sprintf("k%06d", i)), e.ref())
		}
	})
	tr.EvictPN()
	// Warm the partition pages.
	r := e.mgr.Begin()
	defer e.mgr.Commit(r)
	for i := 0; i < 5000; i += 10 {
		lookupRIDs(t, tr, r, []byte(fmt.Sprintf("k%06d", i)))
	}
	before := e.dev.Stats()
	for i := 0; i < 5000; i += 10 {
		lookupRIDs(t, tr, r, []byte(fmt.Sprintf("k%06d", i)))
	}
	delta := e.dev.Stats().Sub(before)
	if delta.Reads != 0 {
		t.Fatalf("index-only lookups on warm cache performed %d device reads", delta.Reads)
	}
}

var _ = bytes.Compare // keep bytes import if tests shrink
