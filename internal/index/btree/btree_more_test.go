package btree

import (
	"bytes"
	"fmt"
	"testing"

	"mvpbt/internal/index"
	"mvpbt/internal/util"
)

func TestInsertDeleteRandomizedModel(t *testing.T) {
	tr, _ := newTree(t, 512)
	model := map[string]bool{} // key+body present?
	r := util.NewRand(31337)
	key := func(k int) []byte { return []byte(fmt.Sprintf("key-%05d", k)) }
	body := func(v int) []byte { return []byte(fmt.Sprintf("body-%03d", v)) }
	for step := 0; step < 15000; step++ {
		k, v := r.Intn(500), r.Intn(4)
		id := string(key(k)) + "|" + string(body(v))
		if r.Intn(4) != 0 {
			if err := tr.InsertEntry(key(k), body(v)); err != nil {
				t.Fatal(err)
			}
			model[id] = true
		} else {
			ok, err := tr.Delete(key(k), body(v))
			if err != nil {
				t.Fatal(err)
			}
			if ok != model[id] {
				t.Fatalf("step %d: delete(%s)=%v model=%v", step, id, ok, model[id])
			}
			delete(model, id)
		}
	}
	if entries(t, tr) != len(model) {
		t.Fatalf("Len=%d model=%d", entries(t, tr), len(model))
	}
	// Full scan matches the model exactly, in order.
	var prevKey, prevBody []byte
	seen := 0
	err := tr.ScanRaw([]byte("key-"), nil, func(k, b []byte) bool {
		if prevKey != nil && cmpEntry(prevKey, prevBody, k, b) >= 0 {
			t.Fatalf("scan out of order at %s|%s", k, b)
		}
		if !model[string(k)+"|"+string(b)] {
			t.Fatalf("scan returned deleted entry %s|%s", k, b)
		}
		prevKey = append(prevKey[:0], k...)
		prevBody = append(prevBody[:0], b...)
		seen++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(model) {
		t.Fatalf("scan saw %d entries, model %d", seen, len(model))
	}
}

func TestHeightGrowsLogarithmically(t *testing.T) {
	tr, _ := newTree(t, 4096)
	for i := 0; i < 60000; i++ {
		if err := tr.Insert(ik(i), ref(i)); err != nil {
			t.Fatal(err)
		}
	}
	if h := tr.h; h < 3 || h > 6 {
		t.Fatalf("height %d for 60k sorted inserts (expected 3..6)", h)
	}
}

func TestLargeEntriesSplitCorrectly(t *testing.T) {
	tr, _ := newTree(t, 1024)
	// Near-max entries force splits with very few entries per node.
	big := bytes.Repeat([]byte("v"), MaxEntrySize-40)
	for i := 0; i < 60; i++ {
		if err := tr.InsertEntry(ik(i), big); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	tr.ScanRaw(ik(0), nil, func(k, b []byte) bool {
		if !bytes.Equal(b, big) {
			t.Fatalf("body corrupted at %s", k)
		}
		count++
		return true
	})
	if count != 60 {
		t.Fatalf("scan saw %d of 60 large entries", count)
	}
}

func TestScanFromMiddleOfDuplicates(t *testing.T) {
	tr, _ := newTree(t, 512)
	// Enough duplicates of one key to span multiple leaves.
	for v := 0; v < 2000; v++ {
		if err := tr.Insert([]byte("dup"), ref(v)); err != nil {
			t.Fatal(err)
		}
	}
	tr.Insert([]byte("zzz"), ref(0))
	count := 0
	err := tr.LookupCandidates([]byte("dup"), func(e index.Entry) bool {
		count++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 2000 {
		t.Fatalf("duplicates across leaves: found %d of 2000", count)
	}
}
