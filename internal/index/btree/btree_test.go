package btree

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"mvpbt/internal/buffer"
	"mvpbt/internal/index"
	"mvpbt/internal/sfile"
	"mvpbt/internal/simclock"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
	"mvpbt/internal/util"
)

func newTree(t *testing.T, frames int) (*Tree, *ssd.Device) {
	t.Helper()
	dev := ssd.New(simclock.New(), ssd.IntelP3600)
	fm := sfile.NewManager(dev)
	tr, err := New(buffer.New(frames), fm.Create("idx", sfile.ClassIndex))
	if err != nil {
		t.Fatal(err)
	}
	return tr, dev
}

// entries counts the tree's live entries.
func entries(t *testing.T, tr *Tree) int {
	t.Helper()
	n := 0
	if err := tr.ScanRaw(nil, nil, func(_, _ []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	return n
}

func ik(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }

func ref(i int) index.Ref {
	return index.Ref{RID: storage.RecordID{Page: storage.NewPageID(1, uint64(i)), Slot: uint16(i)}, VID: uint64(i)}
}

func TestInsertLookupSmall(t *testing.T) {
	tr, _ := newTree(t, 64)
	for i := 0; i < 100; i++ {
		if err := tr.Insert(ik(i), ref(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		found := 0
		err := tr.LookupCandidates(ik(i), func(e index.Entry) bool {
			if e.Ref.VID != uint64(i) {
				t.Fatalf("key %d resolved to vid %d", i, e.Ref.VID)
			}
			found++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if found != 1 {
			t.Fatalf("key %d found %d times", i, found)
		}
	}
}

func TestLookupAbsent(t *testing.T) {
	tr, _ := newTree(t, 64)
	for i := 0; i < 50; i++ {
		tr.Insert(ik(i*2), ref(i))
	}
	err := tr.LookupCandidates(ik(33), func(index.Entry) bool {
		t.Fatal("absent key matched")
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitsAndHeight(t *testing.T) {
	tr, _ := newTree(t, 512)
	const n = 20000
	for i := 0; i < n; i++ {
		if err := tr.Insert(ik(i), ref(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.h < 2 {
		t.Fatalf("tree never split: height=%d", tr.h)
	}
	if entries(t, tr) != n {
		t.Fatalf("Len=%d want %d", entries(t, tr), n)
	}
	// Every key still findable.
	for i := 0; i < n; i += 997 {
		found := false
		tr.LookupCandidates(ik(i), func(index.Entry) bool { found = true; return false })
		if !found {
			t.Fatalf("key %d lost after splits", i)
		}
	}
}

func TestRandomInsertOrderedScan(t *testing.T) {
	tr, _ := newTree(t, 512)
	r := util.NewRand(42)
	perm := make([]int, 5000)
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for _, i := range perm {
		if err := tr.Insert(ik(i), ref(i)); err != nil {
			t.Fatal(err)
		}
	}
	var keys [][]byte
	err := tr.ScanCandidates(ik(0), nil, func(e index.Entry) bool {
		keys = append(keys, e.Key)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 5000 {
		t.Fatalf("scan returned %d keys, want 5000", len(keys))
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 }) {
		t.Fatal("scan not in key order")
	}
}

func TestRangeScanBounds(t *testing.T) {
	tr, _ := newTree(t, 128)
	for i := 0; i < 1000; i++ {
		tr.Insert(ik(i), ref(i))
	}
	count := 0
	tr.ScanCandidates(ik(100), ik(200), func(e index.Entry) bool {
		if bytes.Compare(e.Key, ik(100)) < 0 || bytes.Compare(e.Key, ik(200)) >= 0 {
			t.Fatalf("key %q out of range", e.Key)
		}
		count++
		return true
	})
	if count != 100 {
		t.Fatalf("range returned %d entries, want 100", count)
	}
}

func TestScanEarlyStop(t *testing.T) {
	tr, _ := newTree(t, 128)
	for i := 0; i < 1000; i++ {
		tr.Insert(ik(i), ref(i))
	}
	count := 0
	tr.ScanCandidates(ik(0), nil, func(index.Entry) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("early stop ignored: %d", count)
	}
}

func TestNonUniqueKeys(t *testing.T) {
	tr, _ := newTree(t, 256)
	// 50 versions of the same key: the version-oblivious index treats them
	// as separate tuples (paper §2).
	for v := 0; v < 50; v++ {
		if err := tr.Insert([]byte("hot-tuple"), ref(v)); err != nil {
			t.Fatal(err)
		}
	}
	var vids []uint64
	tr.LookupCandidates([]byte("hot-tuple"), func(e index.Entry) bool {
		vids = append(vids, e.Ref.VID)
		return true
	})
	if len(vids) != 50 {
		t.Fatalf("got %d candidates, want 50", len(vids))
	}
}

func TestDuplicateInsertIgnored(t *testing.T) {
	tr, _ := newTree(t, 64)
	tr.Insert(ik(1), ref(1))
	tr.Insert(ik(1), ref(1))
	if entries(t, tr) != 1 {
		t.Fatalf("duplicate not ignored: Len=%d", entries(t, tr))
	}
}

func TestDelete(t *testing.T) {
	tr, _ := newTree(t, 128)
	for i := 0; i < 100; i++ {
		tr.Insert(ik(i), ref(i))
	}
	body := index.EncodeRef(nil, ref(42))
	ok, err := tr.Delete(ik(42), body)
	if err != nil || !ok {
		t.Fatalf("delete failed: %v %v", ok, err)
	}
	ok, _ = tr.Delete(ik(42), body)
	if ok {
		t.Fatal("double delete succeeded")
	}
	found := false
	tr.LookupCandidates(ik(42), func(index.Entry) bool { found = true; return false })
	if found {
		t.Fatal("deleted entry still visible")
	}
	if entries(t, tr) != 99 {
		t.Fatalf("Len=%d want 99", entries(t, tr))
	}
}

func TestInPlaceMaintenanceCausesRandomWrites(t *testing.T) {
	// The I/O signature that motivates the paper: under buffer pressure a
	// mutable B-Tree's dirty node evictions are random writes.
	tr, dev := newTree(t, 32)
	r := util.NewRand(1)
	for i := 0; i < 20000; i++ {
		if err := tr.Insert(ik(r.Intn(1000000)), ref(i)); err != nil {
			t.Fatal(err)
		}
	}
	s := dev.Stats()
	if s.RandWrites < 100 {
		t.Fatalf("expected heavy random writes from in-place maintenance, got %+v", s)
	}
}

func TestModelComparison(t *testing.T) {
	tr, _ := newTree(t, 256)
	model := map[string][]uint64{}
	r := util.NewRand(3)
	for step := 0; step < 8000; step++ {
		k := r.Intn(300)
		key := string(ik(k))
		v := uint64(r.Intn(10))
		dup := false
		for _, x := range model[key] {
			if x == v {
				dup = true
			}
		}
		if err := tr.Insert(ik(k), index.Ref{VID: v, RID: storage.RecordID{Page: storage.NewPageID(1, v), Slot: 0}}); err != nil {
			t.Fatal(err)
		}
		if !dup {
			model[key] = append(model[key], v)
		}
	}
	total := 0
	for _, vs := range model {
		total += len(vs)
	}
	if entries(t, tr) != total {
		t.Fatalf("Len=%d model=%d", entries(t, tr), total)
	}
	for k, vs := range model {
		var got []uint64
		tr.LookupCandidates([]byte(k), func(e index.Entry) bool {
			got = append(got, e.Ref.VID)
			return true
		})
		if len(got) != len(vs) {
			t.Fatalf("key %s: got %d entries want %d", k, len(got), len(vs))
		}
	}
}

func TestVariableLengthKeys(t *testing.T) {
	tr, _ := newTree(t, 256)
	keys := []string{"", "a", "aa", "ab", "b", "ba", "z", "zzzzzzzzzzzzzzzzzzzzzz"}
	for i, k := range keys {
		if k == "" {
			continue // empty keys unsupported at page level; skip
		}
		if err := tr.Insert([]byte(k), ref(i)); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	tr.ScanCandidates([]byte("a"), nil, func(e index.Entry) bool {
		got = append(got, string(e.Key))
		return true
	})
	want := []string{"a", "aa", "ab", "b", "ba", "z", "zzzzzzzzzzzzzzzzzzzzzz"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order mismatch: %v", got)
		}
	}
}

func TestOversizedEntryRejected(t *testing.T) {
	tr, _ := newTree(t, 64)
	if err := tr.InsertEntry(make([]byte, MaxEntrySize+1), nil); err == nil {
		t.Fatal("oversized entry accepted")
	}
}
