package db

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"mvpbt/internal/storage"
)

// churnUntilReadOnly updates a small key set until the governor degrades the
// engine (history and dead versions pile up while the live state stays
// small, so reclamation has plenty to harvest). Returns the number of
// committed update transactions.
func churnUntilReadOnly(t *testing.T, e *Engine, tbl *Table, ix *Index, keys, maxTx int) int {
	t.Helper()
	n := 0
	for ; n < maxTx; n++ {
		if e.ReadOnly() {
			return n
		}
		key := fmt.Sprintf("k%04d", n%keys)
		tx := e.Begin()
		cur, found, err := tbl.LookupOne(tx, ix, []byte(key), true)
		if err != nil {
			t.Fatalf("lookup during churn: %v", err)
		}
		if !found {
			t.Fatalf("key %s vanished during churn", key)
		}
		// Fat payloads: each update appends a new heap version AND a log
		// record, so live bytes climb quickly toward the watermarks.
		val := fmt.Sprintf("u%08d-%s", n, strings.Repeat("x", 240))
		if _, err := tbl.Update(tx, cur, row(key, val)); err != nil {
			e.Abort(tx)
			if errors.Is(err, ErrReadOnly) || errors.Is(err, storage.ErrNoSpace) {
				return n
			}
			t.Fatalf("update during churn: %v", err)
		}
		if err := e.CommitDurable(tx); err != nil {
			t.Fatalf("commit during churn: %v", err)
		}
	}
	t.Fatalf("engine never degraded after %d update transactions (live=%d)", maxTx, e.FM.LiveBytes())
	return n
}

func TestGovernorDegradesAndRecoversSync(t *testing.T) {
	e, tbl, ix := walTableKind(t, HeapSIAS, Config{
		DeviceCapacityBytes: 16 << 20,
		SpaceSoftBytes:      3 << 20,
		SpaceHardBytes:      4 << 20,
	})
	insertN(t, e, tbl, 0, 50)
	// A long-running reader pins the GC horizon and keeps the checkpoint
	// busy, so the reclamation passes the soft watermark triggers cannot
	// free anything — churn is guaranteed to push the engine to read-only.
	reader := e.Begin()
	churnUntilReadOnly(t, e, tbl, ix, 50, 20000)

	// Degraded: row writes fail fast, reads still serve the committed state.
	tx := e.Begin()
	if _, _, err := tbl.Insert(tx, row("nope", "x")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("insert while degraded: got %v, want ErrReadOnly", err)
	}
	n, err := tbl.Count(tx, ix, nil, nil)
	if err != nil || n != 50 {
		t.Fatalf("read while degraded: count=%d err=%v, want 50 rows", n, err)
	}
	e.Abort(tx)
	st := e.SpaceInfo()
	if !st.ReadOnly || st.ROEntries != 1 {
		t.Fatalf("space state wrong while degraded: %+v", st)
	}

	// Ending the reader unpins the horizon; its abort boundary retries
	// reclamation, which can now checkpoint the churn history out of the
	// WAL and vacuum the dead heap extents. The engine re-opens by itself.
	e.Abort(reader)
	st = e.SpaceInfo()
	if st.ReadOnly {
		t.Fatalf("engine still read-only after reclamation: %+v", st)
	}
	if st.ROExits != 1 || st.Reclaims == 0 {
		t.Fatalf("recovery counters wrong: %+v", st)
	}
	if st.Live >= st.Soft {
		t.Fatalf("reclamation left live=%d above soft=%d", st.Live, st.Soft)
	}

	// Writes resume and the state is still correct.
	insertN(t, e, tbl, 50, 55)
	tx = e.Begin()
	defer e.Abort(tx)
	if n, err := tbl.Count(tx, ix, nil, nil); err != nil || n != 55 {
		t.Fatalf("post-recovery count=%d err=%v, want 55", n, err)
	}
}

func TestGovernorLateENOSPCFlipsReadOnly(t *testing.T) {
	// Watermarks pinned at the capacity itself: the allocator's ErrNoSpace
	// fires before any watermark does, exercising the late-failure path.
	e := NewEngine(Config{
		BufferPages: 1024, PartitionBufferBytes: 1 << 22,
		DeviceCapacityBytes: 2 << 20,
		SpaceSoftBytes:      2 << 20,
		SpaceHardBytes:      2 << 20,
	})
	tbl, err := e.NewTable("t", HeapSIAS, IndexDef{
		Name: "pk", Kind: IdxMVPBT, Unique: true, BloomBits: 10, Extract: keyExtract,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sawNoSpace bool
	for i := 0; i < 100000; i++ {
		tx := e.Begin()
		_, _, err := tbl.Insert(tx, row(fmt.Sprintf("k%06d", i), "payload-payload-payload"))
		if err != nil {
			e.Abort(tx)
			if errors.Is(err, storage.ErrNoSpace) {
				sawNoSpace = true
				break
			}
			if errors.Is(err, ErrReadOnly) {
				break
			}
			t.Fatalf("unexpected insert error: %v", err)
		}
		e.Commit(tx)
	}
	if !sawNoSpace && !e.ReadOnly() {
		t.Fatal("device never filled")
	}
	if !e.ReadOnly() {
		t.Fatal("ErrNoSpace did not degrade the engine to read-only")
	}
	tx := e.Begin()
	defer e.Abort(tx)
	if _, _, err := tbl.Insert(tx, row("x", "y")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write after degradation: got %v, want ErrReadOnly", err)
	}
}

// TestReclaimMergesHotIndex: a hot-updated table past its soft watermark
// frees index pages in one reclamation pass once the reader that pinned its
// old versions through every eviction is gone. No MaxPartitions is set: the
// pass merges because 7/8 of the index's records are collectable.
func TestReclaimMergesHotIndex(t *testing.T) {
	e, tbl, ix := walTableKind(t, HeapSIAS, Config{
		PartitionBufferBytes: 16 << 10,
		DeviceCapacityBytes:  64 << 20,
		SpaceSoftBytes:       1 << 20,
		SpaceHardBytes:       60 << 20,
	})
	insertN(t, e, tbl, 0, 50)
	reader := e.Begin()
	for n := 0; n < 2000; n++ {
		tx := e.Begin()
		key := fmt.Sprintf("k%04d", n%50)
		cur, found, err := tbl.LookupOne(tx, ix, []byte(key), true)
		if err != nil || !found {
			t.Fatalf("lookup %s: %v %v", key, cur, err)
		}
		if _, err := tbl.Update(tx, cur, row(key, fmt.Sprintf("u%08d-%s", n, strings.Repeat("x", 240)))); err != nil {
			t.Fatal(err)
		}
		e.Commit(tx)
	}
	e.Abort(reader)
	mv := ix.MV()
	leaves := func() (n int) {
		for _, p := range mv.Partitions() {
			n += p.NumLeaves
		}
		return n
	}
	st, before := e.SpaceInfo(), leaves()
	if st.Live < st.Soft || mv.NumPartitions() < 5 || mv.Stats().Merges != 0 {
		t.Fatalf("set-up: live %d, soft %d, %d partitions, %d merges", st.Live, st.Soft, mv.NumPartitions(), mv.Stats().Merges)
	}
	if err := e.ReclaimNow(); err != nil {
		t.Fatal(err)
	}
	if after := leaves(); e.SpaceInfo().Reclaims != st.Reclaims+1 || mv.Stats().Merges != 1 || after >= before {
		t.Fatalf("one reclamation pass: %d merges, index leaves %d -> %d", mv.Stats().Merges, before, after)
	}
	tx := e.Begin()
	defer e.Abort(tx)
	if n, err := tbl.Count(tx, ix, nil, nil); err != nil || n != 50 {
		t.Fatalf("count after reclamation: %d, %v", n, err)
	}
}
