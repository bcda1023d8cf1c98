package mvpbt

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvpbt/internal/index"
	"mvpbt/internal/txn"
)

// pnEntry is one P_N record as a reader met it: its key and inline value
// where they lie, and copies of what they held then.
type pnEntry struct {
	key, val, wantKey, wantVal []byte
	rec                        *Record
}

// readPN collects every record of the P_N of v in order.
func readPN(v *treeView) []pnEntry {
	var out []pnEntry
	for it := v.pn.Min(); it.Valid(); it.Next() {
		k, r := it.Key().key, it.Value()
		out = append(out, pnEntry{key: k, val: r.Val, wantKey: bytes.Clone(k), wantVal: bytes.Clone(r.Val), rec: r})
	}
	return out
}

// fillBelow inserts records with 100-byte values until P_N holds about
// limit bytes, all in one committed transaction.
func fillBelow(t *testing.T, e *env, tr *Tree, limit int) {
	t.Helper()
	tx := e.mgr.Begin()
	for i := 0; tr.PNBytes() < limit; i++ {
		if err := tr.InsertRegularVal(tx, []byte(fmt.Sprintf("k%05d", i)), e.ref(), bytes.Repeat([]byte{byte('a' + i%26)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	e.mgr.Commit(tx)
}

// TestEvictionWaitsForReaders: a reader holds the gate's read side on a
// view while a writer's insert evicts that view's P_N. Until the reader
// leaves, the eviction does not hand the old P_N's nodes, records or
// key+value bytes to new inserts: the reader's keys and inline values read
// back unchanged after the inserts that follow, both where it holds them
// and by walking the old P_N again.
func TestEvictionWaitsForReaders(t *testing.T) {
	e := newEnv(256, 16<<10)
	tr := e.tree(Options{})
	fillBelow(t, e, tr, 12<<10)

	tr.gate.RLock() // the reader, on the view that holds the full P_N
	v := tr.view.Load()

	done, ref := make(chan error), e.ref()
	go func() { // the writer whose insert crosses the buffer's limit
		tx := e.mgr.Begin()
		err := tr.InsertRegularVal(tx, []byte("k-big"), ref, bytes.Repeat([]byte{'B'}, 5000))
		e.mgr.Commit(tx)
		done <- err
	}()
	// Wait until the eviction has published its view and either waits for
	// the reader (a writer waits on the gate, so TryRLock fails) or is done.
	for evicting := true; evicting; runtime.Gosched() {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			evicting, done = false, nil
		default:
			if tr.view.Load() == v {
				break
			}
			if evicting = tr.gate.TryRLock(); evicting {
				tr.gate.RUnlock()
			}
		}
	}
	if tr.Stats().Evictions != 1 {
		t.Fatalf("%d evictions, want 1", tr.Stats().Evictions)
	}
	held := readPN(v) // the writer's record went into it before the eviction
	// Inserts into the fresh P_N while the reader still holds the old view.
	tx := e.mgr.Begin()
	for i := 0; i < len(held); i++ {
		if err := tr.InsertRegularVal(tx, []byte(fmt.Sprintf("n%05d", i)), e.ref(), bytes.Repeat([]byte{'Z'}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	e.mgr.Commit(tx)
	for i, h := range held {
		if !bytes.Equal(h.key, h.wantKey) || !bytes.Equal(h.val, h.wantVal) {
			t.Fatalf("record %d the reader holds: key %q val %.8q…, want %q %.8q…", i, h.key, h.val, h.wantKey, h.wantVal)
		}
	}
	again := readPN(v)
	if len(again) != len(held) {
		t.Fatalf("the old P_N walks as %d records, want %d", len(again), len(held))
	}
	for i, h := range again {
		if h.rec != held[i].rec || !bytes.Equal(h.key, held[i].wantKey) || !bytes.Equal(h.val, held[i].wantVal) {
			t.Fatalf("record %d of the old P_N: key %q val %.8q…, want %q %.8q…", i, h.key, h.val, held[i].wantKey, held[i].wantVal)
		}
	}
	tr.gate.RUnlock()
	if done != nil {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestEvictionRecyclesPNMemory: with no reader left, the evicted P_N's
// records serve the next inserts, which then allocate nothing.
func TestEvictionRecyclesPNMemory(t *testing.T) {
	e := newEnv(256, 1<<20)
	tr := e.tree(Options{})
	fillBelow(t, e, tr, 12<<10)
	old := map[*Record]bool{}
	for _, h := range readPN(tr.view.Load()) {
		old[h.rec] = true
	}
	if err := tr.EvictPN(); err != nil {
		t.Fatal(err)
	}
	tx := e.mgr.Begin()
	defer e.mgr.Commit(tx)
	key, val := []byte("n00000"), bytes.Repeat([]byte{'Z'}, 100)
	if n := testing.AllocsPerRun(len(old)/2, func() {
		if err := tr.InsertRegularVal(tx, key, e.ref(), val); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("an insert after the eviction allocated %.2f times, want 0", n)
	}
	for _, h := range readPN(tr.view.Load()) {
		if !old[h.rec] {
			t.Fatalf("the record of %q is not one of the evicted P_N's", h.key)
		}
	}
}

// TestSweptPNMemoryIsFreed: hot-key updates that abort keep a unique tree's
// P_N small by the next insert's drop alone, so no eviction comes to recycle
// its memory. The swept records' memory is freed all the same: across 80 000
// updates of about 300 bytes each, the live heap stays flat, and the
// committed versions read back.
func TestSweptPNMemoryIsFreed(t *testing.T) {
	e := newEnv(256, 64<<20)
	tr := e.tree(Options{Unique: true})
	key := func(k int) []byte { return []byte{'h', byte('a' + k)} }
	update := func(tx *txn.Tx, b byte) {
		for k := 0; k < 16; k++ {
			if err := tr.InsertRegularVal(tx, key(k), e.ref(), bytes.Repeat([]byte{b}, 200)); err != nil {
				t.Fatal(err)
			}
		}
	}
	scan := func() (vals []byte) {
		r := e.mgr.Begin()
		defer e.mgr.Commit(r)
		if err := tr.Scan(r, []byte("h"), []byte("i"), func(en index.Entry) bool {
			vals = append(vals, en.Val[0])
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return vals
	}
	e.commit(func(tx *txn.Tx) { update(tx, 'c') })
	round := func() {
		tx := e.mgr.Begin()
		update(tx, 'x')
		e.mgr.Abort(tx)
		if vals := scan(); string(vals) != string(bytes.Repeat([]byte{'c'}, 16)) {
			t.Fatalf("the scan reads %q, want the 16 committed values", vals)
		}
	}
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for i := 0; i < 100; i++ {
		round()
	}
	before := liveHeap()
	for i := 0; i < 5000; i++ {
		round()
	}
	after := liveHeap()
	t.Logf("live heap %d KiB before the updates, %d KiB after", before>>10, after>>10)
	if st := tr.Stats(); st.Evictions != 0 || st.GCSweptPN < 70000 {
		t.Fatalf("%d evictions, %d records swept: want none and nearly every update", st.Evictions, st.GCSweptPN)
	}
	if after > before+1<<20 {
		t.Fatalf("live heap grew by %d KiB over the updates; P_N holds %d bytes", (after-before)>>10, tr.PNBytes())
	}
}

// TestSweepCopiesPNUnderReaders: a writer's aborted updates to a unique
// tree's hot keys are dropped by its next inserts, and P_N copied out again
// and again while readers scan it. Every value they read is its key's
// committed one, and every key reads once.
func TestSweepCopiesPNUnderReaders(t *testing.T) {
	e := newEnv(256, 64<<20)
	tr := e.tree(Options{Unique: true})
	key := func(k int) []byte { return []byte(fmt.Sprintf("h%02d", k)) }
	val := func(k []byte, b byte) []byte { return append(bytes.Repeat([]byte{b}, 100), k...) }
	update := func(tx *txn.Tx, b byte) {
		for k := 0; k < 16; k++ {
			if err := tr.InsertRegularVal(tx, key(k), e.ref(), val(key(k), b)); err != nil {
				t.Error(err)
			}
		}
	}
	e.commit(func(tx *txn.Tx) { update(tx, 'c') })

	var stop atomic.Bool
	var wg sync.WaitGroup
	for rd := 0; rd < 3; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				r, n := e.mgr.Begin(), 0
				err := tr.Scan(r, []byte("h"), []byte("i"), func(en index.Entry) bool {
					if n++; !bytes.Equal(en.Val, val(en.Key, 'c')) {
						t.Errorf("key %q reads %q", en.Key, en.Val)
					}
					return true
				})
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
	for deadline := time.Now().Add(time.Second); copies < 20 && time.Now().Before(deadline); {
		v, tx := tr.view.Load(), e.mgr.Begin()
		update(tx, 'x')
		e.mgr.Abort(tx)
		if tr.view.Load() != v {
			copies++
		}
	}
	stop.Store(true)
	wg.Wait()
	t.Logf("%d copies of P_N", copies)
	if st := tr.Stats(); copies < 3 || st.Evictions != 0 {
		t.Fatalf("%d copies of P_N and %d evictions: want copies and no eviction", copies, st.Evictions)
	}
}
