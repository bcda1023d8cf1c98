package mvpbt

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvpbt/internal/index"
	"mvpbt/internal/storage"
	"mvpbt/internal/txn"
)

// pnVersions returns the timestamps of key's records in P_N, in processing
// order.
func pnVersions(tr *Tree, key string) []txn.TxID {
	var out []txn.TxID
	for it := tr.view.Load().pn.Seek(pnKey{key: []byte(key), seq: ^uint64(0)}); it.Valid() && string(it.Key().key) == key; it.Next() {
		out = append(out, it.Value().TS)
	}
	return out
}

// TestUniqueOverwritesLeaveTwoRecords: with no snapshot open, each committed
// overwrite of a key drops its superseded versions from P_N at insert: the
// new record and the anchor (the newest committed one) stay, and the freed
// bytes go back to the partition buffer.
func TestUniqueOverwritesLeaveTwoRecords(t *testing.T) {
	e := newEnv(256, 1<<22)
	tr := e.tree(Options{Unique: true})
	blindPut(e, tr, "k", "v0")
	one := tr.PNBytes()
	for i := 1; i <= 100; i++ {
		blindPut(e, tr, "k", fmt.Sprintf("v%d", i%10))
		if n := len(pnVersions(tr, "k")); n > 2 {
			t.Fatalf("after overwrite %d: %d records of the key in P_N, want at most 2", i, n)
		}
	}
	if pn, used := tr.PNBytes(), e.pbuf.Used(); pn > 2*one || used != pn {
		t.Fatalf("P_N %d bytes (one record %d), partition buffer %d", pn, one, used)
	}
	if st := tr.Stats(); st.GCSweptPN != 99 || st.Evictions != 0 {
		t.Fatalf("swept %d records from P_N and evicted %d times, want 99 and 0", st.GCSweptPN, st.Evictions)
	}
	r := e.mgr.Begin()
	defer e.mgr.Commit(r)
	if v, ok := uniqueGet(t, tr, r, "k"); !ok || v != "v0" {
		t.Fatalf("lookup reads %q/%v, want v0", v, ok)
	}
}

// TestUniqueSnapshotKeepsItsVersion: a snapshot opened before K overwrites
// holds the horizon below them, so every version stays in P_N and the
// snapshot reads its own through Lookup and Scan. Once it ends, the next
// write drops them.
func TestUniqueSnapshotKeepsItsVersion(t *testing.T) {
	const overwrites = 20
	e := newEnv(256, 1<<22)
	tr := e.tree(Options{Unique: true})
	blindPut(e, tr, "k", "old")
	s := e.mgr.Begin()
	for i := 0; i < overwrites; i++ {
		blindPut(e, tr, "k", fmt.Sprintf("new%d", i))
	}
	if n := len(pnVersions(tr, "k")); n != overwrites+1 {
		t.Fatalf("%d records of the key in P_N under the snapshot, want %d", n, overwrites+1)
	}
	lookupIsPointScan(t, tr, s, []byte("k"))
	if v, ok := uniqueGet(t, tr, s, "k"); !ok || v != "old" {
		t.Fatalf("the snapshot reads %q/%v, want old", v, ok)
	}
	e.mgr.Commit(s)
	blindPut(e, tr, "k", "last")
	if n := len(pnVersions(tr, "k")); n != 2 {
		t.Fatalf("%d records of the key in P_N after the snapshot ended, want 2", n)
	}
	r := e.mgr.Begin()
	defer e.mgr.Commit(r)
	if v, ok := uniqueGet(t, tr, r, "k"); !ok || v != "last" {
		t.Fatalf("lookup reads %q/%v, want last", v, ok)
	}
}

// TestUniqueUncommittedWriteKeepsAnchor: records of a transaction still in
// progress are kept, and so is the committed record below them that every
// other reader decides at.
func TestUniqueUncommittedWriteKeepsAnchor(t *testing.T) {
	e := newEnv(256, 1<<22)
	tr := e.tree(Options{Unique: true})
	blindPut(e, tr, "k", "v1")
	blindPut(e, tr, "k", "v2")
	w := e.mgr.Begin()
	for _, v := range []string{"dirty1", "dirty2"} {
		if err := tr.InsertRegularVal(w, []byte("k"), e.ref(), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(pnVersions(tr, "k")); n != 3 {
		t.Fatalf("%d records of the key in P_N, want 3: two uncommitted and the anchor", n)
	}
	r := e.mgr.Begin()
	lookupIsPointScan(t, tr, r, []byte("k"))
	if v, ok := uniqueGet(t, tr, r, "k"); !ok || v != "v2" {
		t.Fatalf("a reader reads %q/%v, want v2", v, ok)
	}
	if v, _ := uniqueGet(t, tr, w, "k"); v != "dirty2" {
		t.Fatalf("the writer reads %q, want dirty2", v)
	}
	e.mgr.Commit(r)
	e.mgr.Commit(w)
}

// TestUniqueAbortedRecordsDropped: an aborted transaction's records, a
// tombstone among them, leave P_N at the key's next write, wherever they lie.
func TestUniqueAbortedRecordsDropped(t *testing.T) {
	e := newEnv(256, 1<<22)
	tr := e.tree(Options{Unique: true})
	blindPut(e, tr, "k", "v1")
	a := e.mgr.Begin()
	tr.InsertRegularVal(a, []byte("k"), e.ref(), []byte("aborted"))
	tr.InsertTombstone(a, []byte("k"), storage.RecordID{})
	long := e.mgr.Begin() // holds the horizon: nothing committed is dropped
	e.mgr.Abort(a)
	blindPut(e, tr, "k", "v2")
	ts := pnVersions(tr, "k")
	for _, id := range ts {
		if e.mgr.StatusOf(id) == txn.Aborted {
			t.Fatalf("P_N holds the aborted record %d: %v", id, ts)
		}
	}
	if len(ts) != 2 {
		t.Fatalf("%d records of the key in P_N, want v2 and v1", len(ts))
	}
	if v, ok := uniqueGet(t, tr, long, "k"); !ok || v != "v1" {
		t.Fatalf("the long reader reads %q/%v, want v1", v, ok)
	}
	e.mgr.Commit(long)
}

// TestUniqueSupersedeUnderReaders: readers look up and scan 16 hot keys while
// a writer overwrites them, its superseded versions dropped from P_N at
// insert and P_N copied out again and again. Every value read is one its key
// was given, and every scan reads each key once.
func TestUniqueSupersedeUnderReaders(t *testing.T) {
	e := newEnv(256, 64<<20)
	tr := e.tree(Options{Unique: true})
	key := func(k int) []byte { return []byte(fmt.Sprintf("h%02d", k)) }
	val := func(k []byte, b byte) []byte { return append(bytes.Repeat([]byte{b}, 100), k...) }
	update := func(b byte) {
		e.commit(func(tx *txn.Tx) {
			for k := 0; k < 16; k++ {
				if err := tr.InsertRegularVal(tx, key(k), e.ref(), val(key(k), b)); err != nil {
					t.Error(err)
				}
			}
		})
	}
	update('a')
	good := func(en index.Entry) bool {
		return len(en.Val) == 100+len(en.Key) && bytes.Equal(en.Val, val(en.Key, en.Val[0]))
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for rd := 0; rd < 3; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				r, n := e.mgr.Begin(), 0
				err := tr.Lookup(r, key(i%16), func(en index.Entry) bool {
					if n++; !good(en) {
						t.Errorf("lookup of %q reads %q", en.Key, en.Val)
					}
					return false
				})
				if err == nil && n != 1 {
					t.Errorf("a lookup read %d entries, want 1", n)
				}
				n = 0
				if err == nil {
					err = tr.Scan(r, []byte("h"), []byte("i"), func(en index.Entry) bool {
						if n++; !good(en) {
							t.Errorf("scan of %q reads %q", en.Key, en.Val)
						}
						return true
					})
				}
				e.mgr.Commit(r)
				if err != nil {
					t.Error(err)
				}
				if n != 16 {
					t.Errorf("a scan read %d keys, want 16", n)
				}
			}
		}()
	}
	copies := 0
	for deadline, b := time.Now().Add(time.Second), byte('b'); copies < 10 && time.Now().Before(deadline); b = 'a' + (b-'a'+1)%26 {
		v := tr.view.Load()
		update(b)
		if tr.view.Load() != v {
			copies++
		}
	}
	stop.Store(true)
	wg.Wait()
	if st := tr.Stats(); copies < 3 || st.Evictions != 0 {
		t.Fatalf("%d copies of P_N and %d evictions: want copies and no eviction", copies, st.Evictions)
	}
}
