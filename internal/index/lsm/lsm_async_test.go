package lsm

import (
	"fmt"
	"sync"
	"testing"
)

// The inline flush: the write that fills the memtable builds its run and
// runs every compaction then due under the tree's one lock, so concurrent
// writers and readers see each key in exactly one place, and Flush leaves
// nothing in memory.

func TestAsyncFlushCompacts(t *testing.T) {
	tr, _ := newTree(512, Options{MemtableBytes: 2 << 10, L0Runs: 2})
	val := make([]byte, 128)
	for i := 0; i < 2000; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%06d", i%300)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compactions despite L0Runs=2: %+v", st)
	}
	got := 0
	tr.Scan(nil, nil, func(k, v []byte) bool { got++; return true })
	if got != 300 {
		t.Fatalf("scan saw %d keys, want 300", got)
	}
}

func TestFlushWritesLiveMemtable(t *testing.T) {
	tr, _ := newTree(512, Options{MemtableBytes: 1 << 20})
	tr.Put([]byte("only"), []byte("v"))
	if tr.Stats().Flushes != 0 {
		t.Fatal("small memtable flushed early")
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if tr.Stats().Flushes != 1 {
		t.Fatal("Flush did not flush the live memtable")
	}
	if v, ok, _ := tr.Get([]byte("only")); !ok || string(v) != "v" {
		t.Fatal("key lost across Flush")
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
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	got := 0
	tr.Scan(nil, nil, func(k, v []byte) bool { got++; return true })
	if got != 4000 {
		t.Fatalf("scan saw %d keys, want 4000", got)
	}
}
