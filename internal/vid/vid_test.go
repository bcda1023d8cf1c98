package vid

import (
	"sync"
	"testing"

	"mvpbt/internal/storage"
)

func TestAllocUnique(t *testing.T) {
	tab := NewTable()
	seen := map[VID]bool{}
	for i := 0; i < 1000; i++ {
		v := tab.Alloc()
		if v == 0 {
			t.Fatal("allocated the invalid VID 0")
		}
		if seen[v] {
			t.Fatalf("duplicate VID %d", v)
		}
		seen[v] = true
	}
}

func TestSetGetDelete(t *testing.T) {
	tab := NewTable()
	v := tab.Alloc()
	rid := storage.RecordID{Page: storage.NewPageID(1, 42), Slot: 3}
	tab.Set(v, rid)
	got, ok := tab.Get(v)
	if !ok || got != rid {
		t.Fatalf("Get=%v,%v want %v", got, ok, rid)
	}
	rid2 := storage.RecordID{Page: storage.NewPageID(1, 43), Slot: 0}
	tab.Set(v, rid2) // entry-point moves on update
	if got, _ := tab.Get(v); got != rid2 {
		t.Fatal("Set did not overwrite")
	}
}

func TestEntriesSnapshot(t *testing.T) {
	tab := NewTable()
	for i := 0; i < 10; i++ {
		v := tab.Alloc()
		tab.Set(v, storage.RecordID{Page: storage.NewPageID(1, uint64(i)), Slot: 0})
	}
	es := tab.Entries()
	if len(es) != 10 || len(tab.m) != 10 {
		t.Fatalf("entries=%d len=%d want 10", len(es), len(tab.m))
	}
}

func TestConcurrent(t *testing.T) {
	tab := NewTable()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				v := tab.Alloc()
				tab.Set(v, storage.RecordID{Page: storage.NewPageID(1, uint64(i)), Slot: 0})
				tab.Get(v)
			}
		}()
	}
	wg.Wait()
	if len(tab.m) != 4000 {
		t.Fatalf("len=%d want 4000", len(tab.m))
	}
}
