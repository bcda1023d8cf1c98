package db

import (
	"errors"
	"fmt"
	"testing"

	"mvpbt/internal/sfile"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
)

// seedAndPersist loads n rows (with some updates and deletes mixed in so
// the heap holds multi-version chains), commits, and pushes everything to
// the device so subsequent reads hit the fault-injection layer.
func seedAndPersist(t *testing.T, e *Engine, tbl *Table, ix *Index, n int) map[string]string {
	t.Helper()
	want := map[string]string{}
	tx := e.Begin()
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%04d", i)
		if _, _, err := tbl.Insert(tx, row(k, "v"+k)); err != nil {
			t.Fatal(err)
		}
		want[k] = "v" + k
	}
	e.Commit(tx)
	tx = e.Begin()
	for i := 0; i < n; i += 7 {
		k := fmt.Sprintf("k%04d", i)
		rr, found, err := tbl.LookupOne(tx, ix, []byte(k), true)
		if err != nil || !found {
			t.Fatalf("seed lookup %s: %v %v", k, rr, err)
		}
		if i%14 == 0 {
			if err := tbl.Delete(tx, rr); err != nil {
				t.Fatal(err)
			}
			delete(want, k)
		} else {
			if _, err := tbl.Update(tx, rr, row(k, "u"+k)); err != nil {
				t.Fatal(err)
			}
			want[k] = "u" + k
		}
	}
	e.Commit(tx)
	if ix.PB() != nil {
		if err := ix.PB().EvictPN(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := e.Pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	return want
}

func checkState(t *testing.T, e *Engine, tbl *Table, ix *Index, want map[string]string) {
	t.Helper()
	tx := e.Begin()
	defer e.Commit(tx)
	got := map[string]string{}
	if err := tbl.Scan(tx, ix, nil, nil, true, func(r RowRef) bool {
		got[string(r.Key)] = string(kvValue(r.Row))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scan returned %d rows, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %s: got %q want %q", k, got[k], v)
		}
	}
}

// A bit-rotted page inside a version-oblivious index must be detected by
// the page checksum, quarantined, and the index transparently rebuilt from
// the base table — the read that hit the corruption still returns the
// correct result.
func TestCorruptIndexQuarantinedAndRebuilt(t *testing.T) {
	for _, c := range []combo{
		{"hot-btree-pr", HeapHOT, IdxBTree, RefPhysical},
		{"sias-btree-pr", HeapSIAS, IdxBTree, RefPhysical},
		{"sias-pbt-lr", HeapSIAS, IdxPBT, RefLogical},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, tbl, ix := newTable(t, c)
			want := seedAndPersist(t, e, tbl, ix, 300)
			// Rot one bit in the first index page read back from the device.
			e.Dev.ArmFault(ssd.FaultRule{
				Kind: ssd.FaultBitFlip, Class: int(sfile.ClassIndex),
				ByteOffset: 777, Ops: []uint64{1},
			})
			checkState(t, e, tbl, ix, want)
			if got := tbl.Rebuilds(); got != 1 {
				t.Fatalf("rebuilds = %d, want 1", got)
			}
			if cf := e.Pool.IOStats().ChecksumFailures; cf == 0 {
				t.Fatal("checksum failure not counted")
			}
			// The rebuilt index must serve point lookups and survive further
			// writes; no second rebuild may occur now that the rot is gone.
			tx := e.Begin()
			if _, _, err := tbl.Insert(tx, row("zz-new", "fresh")); err != nil {
				t.Fatal(err)
			}
			e.Commit(tx)
			want["zz-new"] = "fresh"
			checkState(t, e, tbl, ix, want)
			if got := tbl.Rebuilds(); got != 1 {
				t.Fatalf("rebuilds after recovery = %d, want still 1", got)
			}
		})
	}
}

// Corruption in the BASE TABLE is not recoverable — there is no redundant
// structure to rebuild it from — so reads must surface the typed error
// rather than attempt a rebuild.
func TestCorruptHeapPageIsHardError(t *testing.T) {
	for _, c := range []combo{
		{"hot-btree-pr", HeapHOT, IdxBTree, RefPhysical},
		{"sias-btree-pr", HeapSIAS, IdxBTree, RefPhysical},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, tbl, ix := newTable(t, c)
			seedAndPersist(t, e, tbl, ix, 300)
			e.Dev.ArmFault(ssd.FaultRule{
				Kind: ssd.FaultBitFlip, Class: int(sfile.ClassTable),
				ByteOffset: 777, Sticky: true,
			})
			tx := e.Begin()
			defer e.Commit(tx)
			err := tbl.Scan(tx, ix, nil, nil, true, func(RowRef) bool { return true })
			if !errors.Is(err, storage.ErrCorruptPage) {
				t.Fatalf("heap corruption surfaced as %v, want ErrCorruptPage", err)
			}
			if got := tbl.Rebuilds(); got != 0 {
				t.Fatalf("rebuilds = %d, want 0 (heap corruption must not trigger index rebuild)", got)
			}
		})
	}
}

// RebuildIndex refuses MV-PBT indexes: their entries carry transactional
// metadata the heap cannot reproduce.
func TestRebuildRefusesMVPBT(t *testing.T) {
	e, tbl, ix := newTable(t, combo{"sias-mvpbt", HeapSIAS, IdxMVPBT, RefPhysical})
	_ = e
	if err := tbl.RebuildIndex(ix); err == nil {
		t.Fatal("RebuildIndex accepted an MV-PBT index")
	}
}
