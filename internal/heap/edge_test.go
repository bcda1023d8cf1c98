package heap

import (
	"bytes"
	"fmt"
	"testing"

	"mvpbt/internal/storage"
	"mvpbt/internal/txn"
)

func TestReadVersionOfGoneRecord(t *testing.T) {
	e := newEnv(64)
	h := e.sias()
	var rid storage.RecordID
	e.commit(func(tx *txn.Tx) { rid, _ = h.Insert(tx, 1, []byte("v0")) })
	cur := rid
	for i := 0; i < 5; i++ {
		e.commit(func(tx *txn.Tx) {
			res, _ := h.Update(tx, cur, 1, []byte(fmt.Sprintf("v%d", i+1)), true)
			cur = res.NewRID
		})
	}
	if _, err := h.Vacuum(e.mgr.Horizon()); err != nil {
		t.Fatal(err)
	}
	// The original version was vacuumed away; reading it must error, and
	// a stale-candidate visibility check must still find the live version.
	if _, err := h.ReadVersion(rid); err == nil {
		t.Fatal("vacuumed record still readable")
	}
	r := e.mgr.Begin()
	defer e.mgr.Commit(r)
	if vv, _ := readVisible(h, r, rid); vv != nil {
		// The candidate slot is dead: ReadVisible resolves nil (the db
		// layer then skips the candidate).
		t.Fatalf("dead candidate resolved: %+v", vv)
	}
	if vv, ok, _ := h.VisibleByVID(r, 1); !ok || !bytes.Equal(vv.Data, []byte("v5")) {
		t.Fatalf("live version lost after vacuum: %+v", vv)
	}
}

func TestHotDeleteConflicts(t *testing.T) {
	e := newEnv(64)
	h := e.hot()
	var rid storage.RecordID
	e.commit(func(tx *txn.Tx) { rid, _ = h.Insert(tx, 1, []byte("x")) })
	t1 := e.mgr.Begin()
	if _, err := h.Delete(t1, rid, 1); err != nil {
		t.Fatal(err)
	}
	t2 := e.mgr.Begin()
	if _, err := h.Delete(t2, rid, 1); err != ErrWriteConflict {
		t.Fatalf("concurrent delete: want conflict, got %v", err)
	}
	e.mgr.Abort(t1)
	// After the abort the delete may proceed.
	if _, err := h.Delete(t2, rid, 1); err != nil {
		t.Fatalf("delete after abort: %v", err)
	}
	e.mgr.Commit(t2)
}

func TestHotDeleteOfGoneRecord(t *testing.T) {
	e := newEnv(64)
	h := e.hot()
	tx := e.mgr.Begin()
	defer e.mgr.Abort(tx)
	gone := storage.RecordID{Page: storage.NewPageID(1, 0), Slot: 99}
	// Allocate page 0 first so the read succeeds but the slot is dead.
	e.commit(func(x *txn.Tx) { h.Insert(x, 1, []byte("seed")) })
	if _, err := h.Delete(tx, gone, 1); err != ErrWriteConflict {
		t.Fatalf("delete of dead slot: want conflict, got %v", err)
	}
}

func TestHotVacuumReusesFreedPages(t *testing.T) {
	e := newEnv(512)
	h := e.hot()
	// Build long chains on several pages, then vacuum and verify new
	// inserts land in the reclaimed space (file does not grow).
	var rids []storage.RecordID
	e.commit(func(tx *txn.Tx) {
		for i := 0; i < 50; i++ {
			rid, _ := h.Insert(tx, uint64(i+1), bytes.Repeat([]byte("a"), 300))
			rids = append(rids, rid)
		}
	})
	for round := 0; round < 6; round++ {
		e.commit(func(tx *txn.Tx) {
			for i := range rids {
				cur, _ := readVisible(h, tx, rids[i])
				if cur == nil {
					t.Fatalf("tuple %d lost", i)
				}
				res, err := h.Update(tx, cur.RID, uint64(i+1), bytes.Repeat([]byte("b"), 300), true)
				if err != nil {
					t.Fatal(err)
				}
				if res.NeedsIndexUpdate {
					// Non-HOT: the tuple moved to a new segment; track the
					// new entry-point like the index layer would.
					rids[i] = res.NewRID
				}
			}
		})
	}
	if _, err := h.Vacuum(e.mgr.Horizon()); err != nil {
		t.Fatal(err)
	}
	before := h.file.NumPages()
	e.commit(func(tx *txn.Tx) {
		for i := 0; i < 30; i++ {
			if _, err := h.Insert(tx, uint64(1000+i), bytes.Repeat([]byte("c"), 300)); err != nil {
				t.Fatal(err)
			}
		}
	})
	after := h.file.NumPages()
	if after > before+2 {
		t.Fatalf("vacuumed space not reused: %d -> %d pages", before, after)
	}
}

func TestSiasDoubleUpdateSameTx(t *testing.T) {
	e := newEnv(64)
	h := e.sias()
	var rid storage.RecordID
	e.commit(func(tx *txn.Tx) { rid, _ = h.Insert(tx, 3, []byte("v0")) })
	tx := e.mgr.Begin()
	r1, err := h.Update(tx, rid, 3, []byte("v1"), true)
	if err != nil {
		t.Fatal(err)
	}
	// Second update in the same tx chains onto its own first write even
	// when the caller passes the original rid.
	if _, err := h.Update(tx, rid, 3, []byte("v2"), true); err != nil {
		t.Fatalf("second same-tx update: %v", err)
	}
	e.mgr.Commit(tx)
	r := e.mgr.Begin()
	defer e.mgr.Commit(r)
	vv, ok, _ := h.VisibleByVID(r, 3)
	if !ok || !bytes.Equal(vv.Data, []byte("v2")) {
		t.Fatalf("got %+v want v2", vv)
	}
	_ = r1
}

func TestVisibleVersionDataIsCopied(t *testing.T) {
	// The returned payload must not alias the page buffer (which the
	// buffer pool recycles).
	e := newEnv(4) // tiny pool: frames recycle immediately
	h := e.sias()
	var rid storage.RecordID
	e.commit(func(tx *txn.Tx) { rid, _ = h.Insert(tx, 1, []byte("stable-payload")) })
	r := e.mgr.Begin()
	defer e.mgr.Commit(r)
	vv, _ := readVisible(h, r, rid)
	// Churn the pool so the frame gets reused.
	e.commit(func(tx *txn.Tx) {
		for i := 0; i < 50; i++ {
			h.Insert(tx, uint64(100+i), bytes.Repeat([]byte("x"), 500))
		}
	})
	if !bytes.Equal(vv.Data, []byte("stable-payload")) {
		t.Fatalf("payload aliased a recycled frame: %q", vv.Data)
	}
}

func TestHeapsAcceptEmptyData(t *testing.T) {
	e := newEnv(64)
	for name, h := range heapsUnderTest(e) {
		t.Run(name, func(t *testing.T) {
			var rid storage.RecordID
			e.commit(func(tx *txn.Tx) {
				var err error
				rid, err = h.Insert(tx, 77, nil)
				if err != nil {
					t.Fatal(err)
				}
			})
			r := e.mgr.Begin()
			defer e.mgr.Commit(r)
			vv, err := readVisible(h, r, rid)
			if err != nil || vv == nil {
				t.Fatalf("empty-payload tuple lost: %+v %v", vv, err)
			}
			if len(vv.Data) != 0 {
				t.Fatalf("payload not empty: %q", vv.Data)
			}
		})
	}
}
