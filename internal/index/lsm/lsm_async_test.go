package lsm

import (
	"fmt"
	"sync"
	"testing"
)

// The freeze → FlushPending pipeline: a full memtable is frozen onto the imm
// list and its run is built without holding mu, so reads must cover mem +
// imm + runs at every point in between, concurrent writers may freeze while
// another flushes, and Close leaves nothing in memory.

// freeze moves the live memtable onto the imm list without flushing it,
// the state a reader sees while another writer is inside FlushPending.
func freeze(tr *Tree) {
	tr.mu.Lock()
	tr.freezeLocked()
	tr.mu.Unlock()
}

func TestAsyncFlushReadsCoverImm(t *testing.T) {
	tr, _ := newTree(512, Options{MemtableBytes: 1 << 20})
	val := make([]byte, 64)
	n := 500
	for i := 0; i < n; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%06d", i)), val); err != nil {
			t.Fatal(err)
		}
		switch {
		case i%100 == 99:
			freeze(tr) // frozen memtables pile up unflushed
		case i == 250:
			if err := tr.FlushPending(); err != nil { // some become runs
				t.Fatal(err)
			}
		}
		// Interleave reads: keys must be visible whether they sit in mem,
		// a frozen imm, or an already-flushed run.
		if i%37 == 0 {
			probe := []byte(fmt.Sprintf("k%06d", i/2))
			if _, ok, err := tr.Get(probe); err != nil || !ok {
				t.Fatalf("key %s lost mid-flush: ok=%v err=%v", probe, ok, err)
			}
		}
	}
	if tr.PendingMemtables() == 0 || tr.Stats().Flushes == 0 {
		t.Fatalf("want both frozen memtables and runs: pending=%d flushes=%d",
			tr.PendingMemtables(), tr.Stats().Flushes)
	}
	// Every key still readable, and a scan sees all of them exactly once.
	got := 0
	tr.Scan(nil, nil, func(k, v []byte) bool { got++; return true })
	if got != n {
		t.Fatalf("scan saw %d keys, want %d", got, n)
	}
}

func TestAsyncFlushCompacts(t *testing.T) {
	tr, _ := newTree(512, Options{MemtableBytes: 2 << 10, L0Runs: 2})
	val := make([]byte, 128)
	for i := 0; i < 2000; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%06d", i%300)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compactions despite L0Runs=2: %+v", st)
	}
	if tr.PendingMemtables() != 0 {
		t.Fatalf("Close left %d frozen memtables", tr.PendingMemtables())
	}
	got := 0
	tr.Scan(nil, nil, func(k, v []byte) bool { got++; return true })
	if got != 300 {
		t.Fatalf("scan saw %d keys, want 300", got)
	}
}

func TestAsyncCloseFlushesMemtable(t *testing.T) {
	tr, _ := newTree(512, Options{MemtableBytes: 1 << 20})
	tr.Put([]byte("only"), []byte("v"))
	if tr.Stats().Flushes != 0 {
		t.Fatal("small memtable flushed early")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.Stats().Flushes != 1 {
		t.Fatal("Close did not flush the live memtable")
	}
	if v, ok, _ := tr.Get([]byte("only")); !ok || string(v) != "v" {
		t.Fatal("key lost across Close")
	}
}

func TestAsyncConcurrentWritersAndReaders(t *testing.T) {
	tr, _ := newTree(512, Options{MemtableBytes: 8 << 10, L0Runs: 3})
	val := make([]byte, 64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				key := []byte(fmt.Sprintf("g%dk%06d", g, i))
				if err := tr.Put(key, val); err != nil {
					t.Error(err)
					return
				}
				if i%29 == 0 {
					if _, ok, err := tr.Get(key); err != nil || !ok {
						t.Errorf("own write lost: %s ok=%v err=%v", key, ok, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	got := 0
	tr.Scan(nil, nil, func(k, v []byte) bool { got++; return true })
	if got != 4000 {
		t.Fatalf("scan saw %d keys, want 4000", got)
	}
}
