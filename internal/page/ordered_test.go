package page

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"mvpbt/internal/util"
)

func TestInsertAtMaintainsOrder(t *testing.T) {
	p := newPage()
	// Insert records in random order at their sorted positions.
	r := util.NewRand(5)
	var keys []int
	for i := 0; i < 60; i++ {
		k := r.Intn(10000)
		rec := []byte(fmt.Sprintf("%06d", k))
		pos := sort.SearchInts(keys, k)
		if !p.InsertAt(pos, rec) {
			t.Fatalf("InsertAt %d failed", i)
		}
		keys = append(keys, 0)
		copy(keys[pos+1:], keys[pos:])
		keys[pos] = k
	}
	for i, k := range keys {
		want := fmt.Sprintf("%06d", k)
		if got := p.Get(i); string(got) != want {
			t.Fatalf("slot %d: %q want %q", i, got, want)
		}
	}
}

func TestInsertAtBounds(t *testing.T) {
	p := newPage()
	if p.InsertAt(-1, []byte("x")) {
		t.Fatal("negative position accepted")
	}
	if p.InsertAt(1, []byte("x")) {
		t.Fatal("past-end position accepted")
	}
	if p.InsertAt(0, nil) {
		t.Fatal("empty record accepted")
	}
	if p.InsertAt(0, make([]byte, MaxRecordLen+1)) {
		t.Fatal("oversized record accepted")
	}
	if !p.InsertAt(0, []byte("first")) || !p.InsertAt(1, []byte("last")) || !p.InsertAt(0, []byte("new-first")) {
		t.Fatal("valid InsertAt failed")
	}
	if string(p.Get(0)) != "new-first" || string(p.Get(2)) != "last" {
		t.Fatal("order wrong after boundary inserts")
	}
}

func TestInsertAtCompactsWhenFragmented(t *testing.T) {
	p := newPage()
	rec := bytes.Repeat([]byte("a"), 200)
	n := 0
	for p.InsertAt(p.NumSlots(), rec) {
		n++
	}
	// Free alternating slots via DeleteAt (shrinking the directory).
	for i := n - 1; i >= 0; i -= 2 {
		p.DeleteAt(i)
	}
	// The freed space is fragmented; InsertAt must compact and succeed.
	added := 0
	for p.InsertAt(p.NumSlots(), rec) {
		added++
	}
	if added < n/2-1 {
		t.Fatalf("compaction reclaimed too little: %d of ~%d", added, n/2)
	}
}

func TestDeleteAtShiftsSlots(t *testing.T) {
	p := newPage()
	for i := 0; i < 5; i++ {
		p.InsertAt(i, []byte(fmt.Sprintf("r%d", i)))
	}
	p.DeleteAt(1)
	p.DeleteAt(2) // originally r3
	want := []string{"r0", "r2", "r4"}
	if p.NumSlots() != 3 {
		t.Fatalf("slots=%d", p.NumSlots())
	}
	for i, w := range want {
		if got := string(p.Get(i)); got != w {
			t.Fatalf("slot %d: %q want %q", i, got, w)
		}
	}
	p.DeleteAt(-1) // no-ops
	p.DeleteAt(99)
	if p.NumSlots() != 3 {
		t.Fatal("out-of-range DeleteAt changed the page")
	}
}

func TestOrderedModelProperty(t *testing.T) {
	// Random sequence of InsertAt/DeleteAt against a slice model.
	p := newPage()
	var model [][]byte
	r := util.NewRand(99)
	for step := 0; step < 20000; step++ {
		if r.Intn(3) != 0 || len(model) == 0 {
			rec := make([]byte, 1+r.Intn(120))
			r.Letters(rec)
			pos := r.Intn(len(model) + 1)
			if p.InsertAt(pos, rec) {
				model = append(model, nil)
				copy(model[pos+1:], model[pos:])
				model[pos] = append([]byte(nil), rec...)
			}
		} else {
			pos := r.Intn(len(model))
			p.DeleteAt(pos)
			model = append(model[:pos], model[pos+1:]...)
		}
		if step%997 == 0 {
			if p.NumSlots() != len(model) {
				t.Fatalf("step %d: slots=%d model=%d", step, p.NumSlots(), len(model))
			}
			for i := range model {
				if !bytes.Equal(p.Get(i), model[i]) {
					t.Fatalf("step %d slot %d: %q want %q", step, i, p.Get(i), model[i])
				}
			}
		}
	}
}
