package db

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"mvpbt/internal/sfile"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
	"mvpbt/internal/util"
	"mvpbt/internal/wal"
)

// walTable builds a WAL-enabled engine with one MV-PBT table.
func walTable(t *testing.T) (*Engine, *Table, *Index) {
	t.Helper()
	e := NewEngine(Config{BufferPages: 1024, PartitionBufferBytes: 1 << 22, EnableWAL: true})
	tbl, err := e.NewTable("accounts", HeapSIAS, IndexDef{
		Name: "pk", Kind: IdxMVPBT, Unique: true, BloomBits: 10, Extract: keyExtract,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, tbl, tbl.Indexes()[0]
}

// recoverInto replays a log image into a fresh engine with the same schema.
func recoverInto(t *testing.T, logImage []byte) (*Engine, *Table, *Index, int) {
	t.Helper()
	e, tbl, ix := walTable(t)
	applied, err := e.Recover(logImage)
	if err != nil {
		t.Fatal(err)
	}
	return e, tbl, ix, applied
}

func snapshotState(t *testing.T, e *Engine, tbl *Table, ix *Index) map[string]string {
	t.Helper()
	tx := e.Begin()
	defer e.Commit(tx)
	out := map[string]string{}
	err := tbl.Scan(tx, ix, []byte("\x00"), nil, true, func(rr RowRef) bool {
		out[string(keyExtract(rr.Row))] = string(kvValue(rr.Row))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRecoverCommittedOnly(t *testing.T) {
	e, tbl, ix := walTable(t)
	tx := e.Begin()
	tbl.Insert(tx, row("a", "1"))
	tbl.Insert(tx, row("b", "2"))
	e.Commit(tx)

	// An uncommitted transaction whose ops reach the log via a later
	// commit's flush must still be discarded at recovery.
	dangling := e.Begin()
	tbl.Insert(dangling, row("c", "3"))

	tx = e.Begin()
	cur, _, _ := tbl.LookupOne(tx, ix, []byte("a"), true)
	tbl.Update(tx, cur, row("a", "1b"))
	e.Commit(tx)

	// "Crash": take the durable log image; dangling never committed.
	img := e.LogImage()
	_, tbl2, ix2, applied := recoverInto(t, img)
	if applied != 2 {
		t.Fatalf("applied %d txs, want 2", applied)
	}
	e2 := tbl2.eng
	got := snapshotState(t, e2, tbl2, ix2)
	if len(got) != 2 || got["a"] != "1b" || got["b"] != "2" {
		t.Fatalf("recovered state wrong: %v", got)
	}
	_ = dangling
}

func TestRecoverDeleteAndReinsert(t *testing.T) {
	e, tbl, ix := walTable(t)
	tx := e.Begin()
	tbl.Insert(tx, row("k", "v1"))
	e.Commit(tx)
	tx = e.Begin()
	cur, _, _ := tbl.LookupOne(tx, ix, []byte("k"), true)
	tbl.Delete(tx, cur)
	e.Commit(tx)
	tx = e.Begin()
	tbl.Insert(tx, row("k", "v2"))
	e.Commit(tx)

	_, tbl2, ix2, _ := recoverInto(t, e.LogImage())
	got := snapshotState(t, tbl2.eng, tbl2, ix2)
	if len(got) != 1 || got["k"] != "v2" {
		t.Fatalf("recovered state wrong: %v", got)
	}
}

func TestRecoverAbortedDiscarded(t *testing.T) {
	e, tbl, ix := walTable(t)
	tx := e.Begin()
	tbl.Insert(tx, row("keep", "x"))
	e.Commit(tx)
	tx = e.Begin()
	tbl.Insert(tx, row("drop", "y"))
	e.Abort(tx)
	// Flush the abort record with a follow-up commit.
	tx = e.Begin()
	cur, _, _ := tbl.LookupOne(tx, ix, []byte("keep"), true)
	tbl.Update(tx, cur, row("keep", "x2"))
	e.Commit(tx)

	_, tbl2, ix2, _ := recoverInto(t, e.LogImage())
	got := snapshotState(t, tbl2.eng, tbl2, ix2)
	if len(got) != 1 || got["keep"] != "x2" {
		t.Fatalf("aborted tx leaked into recovery: %v", got)
	}
}

func TestRecoverTruncatedLog(t *testing.T) {
	e, tbl, _ := walTable(t)
	pad := make([]byte, 400)
	for i := range pad {
		pad[i] = 'p'
	}
	for i := 0; i < 50; i++ {
		tx := e.Begin()
		tbl.Insert(tx, row(fmt.Sprintf("k%03d", i), string(pad)))
		e.Commit(tx)
	}
	img := e.LogImage()
	// Crash mid-write: chop the image at an arbitrary point.
	cut := len(img) * 3 / 4
	_, tbl2, ix2, applied := recoverInto(t, img[:cut])
	if applied == 0 || applied >= 50 {
		t.Fatalf("applied %d txs from a truncated log", applied)
	}
	got := snapshotState(t, tbl2.eng, tbl2, ix2)
	// A prefix of the insert sequence, in order.
	if len(got) != applied {
		t.Fatalf("recovered %d rows from %d applied txs", len(got), applied)
	}
	for i := 0; i < applied; i++ {
		if _, ok := got[fmt.Sprintf("k%03d", i)]; !ok {
			t.Fatalf("recovered rows are not a log prefix: missing k%03d of %d", i, applied)
		}
	}
}

func TestRecoveryIsItselfRecoverable(t *testing.T) {
	e, tbl, ix := walTable(t)
	tx := e.Begin()
	tbl.Insert(tx, row("a", "1"))
	tbl.Insert(tx, row("b", "2"))
	e.Commit(tx)
	tx = e.Begin()
	cur, _, _ := tbl.LookupOne(tx, ix, []byte("b"), true)
	tbl.Update(tx, cur, row("b", "2x"))
	e.Commit(tx)

	// Recover once; the recovered engine re-logs, so recover AGAIN from the
	// new engine's log.
	e2, tbl2, ix2, _ := recoverInto(t, e.LogImage())
	_, tbl3, ix3, _ := recoverInto(t, e2.LogImage())
	want := snapshotState(t, e2, tbl2, ix2)
	got := snapshotState(t, tbl3.eng, tbl3, ix3)
	if len(got) != len(want) {
		t.Fatalf("double recovery diverged: %v vs %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("double recovery key %s: %q vs %q", k, got[k], v)
		}
	}
}

func TestRecoverRandomizedHistory(t *testing.T) {
	e, tbl, ix := walTable(t)
	r := util.NewRand(99)
	model := map[string]string{}
	for step := 0; step < 800; step++ {
		k := fmt.Sprintf("k%03d", r.Intn(100))
		commit := r.Intn(4) != 0
		tx := e.Begin()
		cur, found, err := tbl.LookupOne(tx, ix, []byte(k), true)
		if err != nil {
			t.Fatal(err)
		}
		v := fmt.Sprintf("s%d", step)
		switch {
		case !found:
			_, _, err = tbl.Insert(tx, row(k, v))
		case r.Intn(10) == 0:
			err = tbl.Delete(tx, cur)
			v = ""
		default:
			_, err = tbl.Update(tx, cur, row(k, v))
		}
		if err != nil {
			t.Fatal(err)
		}
		if commit {
			e.Commit(tx)
			if v == "" {
				delete(model, k)
			} else {
				model[k] = v
			}
		} else {
			e.Abort(tx)
		}
	}
	_, tbl2, ix2, _ := recoverInto(t, e.LogImage())
	got := snapshotState(t, tbl2.eng, tbl2, ix2)
	if len(got) != len(model) {
		t.Fatalf("recovered %d rows, model %d", len(got), len(model))
	}
	for k, v := range model {
		if got[k] != v {
			t.Fatalf("key %s: recovered %q want %q", k, got[k], v)
		}
	}
}

// TestRecoverCrashDuringBackgroundMerge crashes the engine at the
// documented merge crash point (inputs consumed, merged partition neither
// built nor installed) and replays the WAL into a fresh engine. Recovery
// must reconstruct exactly the committed state — a merge is pure
// reorganization, so a crash at ANY point inside it must be invisible —
// and the recovered tree must survive a subsequent full merge unchanged.
func TestRecoverCrashDuringBackgroundMerge(t *testing.T) {
	e, tbl, ix := walTable(t)
	model := map[string]string{}

	// Three rounds of committed churn, each evicted into its own
	// partition, so the merge has real multi-partition chains to collapse:
	// inserts, updates and deletes of the same keys across partitions.
	for round := 0; round < 3; round++ {
		for i := 0; i < 20; i++ {
			k := fmt.Sprintf("k%03d", i)
			v := fmt.Sprintf("r%d", round)
			tx := e.Begin()
			cur, found, err := tbl.LookupOne(tx, ix, []byte(k), true)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case !found:
				_, _, err = tbl.Insert(tx, row(k, v))
				model[k] = v
			case round == 1 && i%5 == 0:
				err = tbl.Delete(tx, cur)
				delete(model, k)
			default:
				_, err = tbl.Update(tx, cur, row(k, v))
				model[k] = v
			}
			if err != nil {
				t.Fatal(err)
			}
			e.Commit(tx)
		}
		if err := ix.MV().EvictPN(); err != nil {
			t.Fatal(err)
		}
	}
	if n := ix.MV().NumPartitions(); n < 2 {
		t.Fatalf("setup built %d partitions, need >= 2 for a merge", n)
	}

	// An in-flight writer at crash time: its ops may reach the log image
	// via earlier flushes but must be discarded by recovery.
	dangling := e.Begin()
	if _, _, err := tbl.Insert(dangling, row("zzz", "lost")); err != nil {
		t.Fatal(err)
	}

	var img []byte
	fired := false
	ix.MV().SetMergeTestHook(func() {
		fired = true
		img = e.LogImage()
		e.Crash()
	})
	if err := ix.MV().MergePartitions(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("merge test hook never fired")
	}

	e2, tbl2, ix2, applied := recoverInto(t, img)
	if applied == 0 {
		t.Fatal("recovery applied no transactions")
	}
	got := snapshotState(t, e2, tbl2, ix2)
	if len(got) != len(model) {
		t.Fatalf("recovered %d rows, committed model has %d: got %v", len(got), len(model), got)
	}
	for k, v := range model {
		if got[k] != v {
			t.Fatalf("key %s: recovered %q, model %q", k, got[k], v)
		}
	}
	if _, ok := got["zzz"]; ok {
		t.Fatal("in-flight insert survived the crash")
	}

	// Harness scan invariants on the recovered index: key-ordered, no
	// duplicate keys (unique index).
	tx := e2.Begin()
	var prev string
	err := tbl2.Scan(tx, ix2, []byte("\x00"), nil, true, func(rr RowRef) bool {
		k := string(keyExtract(rr.Row))
		if prev != "" && k <= prev {
			t.Fatalf("scan out of order or duplicated: %q after %q", k, prev)
		}
		prev = k
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	e2.Commit(tx)

	// The recovered engine must be able to run the merge the crash
	// interrupted: rebuild two partitions, merge, and compare state again.
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k%03d", i)
		tx := e2.Begin()
		cur, found, err := tbl2.LookupOne(tx, ix2, []byte(k), true)
		if err != nil || !found {
			t.Fatalf("post-recovery lookup %s: cur=%v err=%v", k, cur, err)
		}
		if _, err := tbl2.Update(tx, cur, row(k, "post")); err != nil {
			t.Fatal(err)
		}
		e2.Commit(tx)
		model[k] = "post"
		if i == 4 {
			if err := ix2.MV().EvictPN(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ix2.MV().EvictPN(); err != nil {
		t.Fatal(err)
	}
	if err := ix2.MV().MergePartitions(); err != nil {
		t.Fatalf("merge after recovery: %v", err)
	}
	got = snapshotState(t, e2, tbl2, ix2)
	if len(got) != len(model) {
		t.Fatalf("post-recovery merge changed row count: %d vs %d", len(got), len(model))
	}
	for k, v := range model {
		if got[k] != v {
			t.Fatalf("post-recovery merge key %s: got %q want %q", k, got[k], v)
		}
	}
}

func TestWALDisabledByDefault(t *testing.T) {
	e := NewEngine(Config{})
	if e.LogImage() != nil {
		t.Fatal("log exists without EnableWAL")
	}
	if _, err := e.Recover(nil); err == nil {
		t.Fatal("Recover should fail without EnableWAL")
	}
}

// TestRecoverMidLogCorruption flips a bit in the MIDDLE of the log (not the
// torn tail): recovery must stop at the corrupt record, apply only the
// intact prefix, report how many committed transactions were dropped, and
// return a typed wal.ErrWALCorrupt instead of replaying garbage.
func TestRecoverMidLogCorruption(t *testing.T) {
	e, tbl, _ := walTable(t)
	for i, kv := range [][2]string{{"a", "1"}, {"b", "2"}, {"c", "3"}} {
		tx := e.Begin()
		if _, _, err := tbl.Insert(tx, row(kv[0], kv[1])); err != nil {
			t.Fatal(err)
		}
		e.Commit(tx)
		_ = i
	}
	img := e.LogImage()

	// Locate the end of the FIRST committed transaction, then corrupt the
	// record that follows it.
	r := wal.NewReaderFromBytes(img)
	cut := -1
	for {
		rec, ok := r.Next()
		if !ok {
			t.Fatal("log unexpectedly short")
		}
		if rec.Op == wal.OpCommit {
			cut = r.Offset()
			break
		}
	}
	img[cut+3] ^= 0x08

	e2, tbl2, ix2 := walTable(t)
	applied, err := e2.Recover(img)
	if !errors.Is(err, wal.ErrWALCorrupt) {
		t.Fatalf("want ErrWALCorrupt, got %v", err)
	}
	if !strings.Contains(err.Error(), "2 committed transaction(s) dropped") {
		t.Fatalf("error does not report dropped commits: %v", err)
	}
	if applied != 1 {
		t.Fatalf("applied %d txs, want 1 (the intact prefix)", applied)
	}
	got := snapshotState(t, e2, tbl2, ix2)
	if len(got) != 1 || got["a"] != "1" {
		t.Fatalf("recovered state wrong: %v", got)
	}
}

// TestRecoverTornTailIsNotCorruption: a log whose final record is torn
// (crash during an unacknowledged flush) recovers the prefix with NO error
// — nothing committed was lost.
func TestRecoverTornTailIsNotCorruption(t *testing.T) {
	e, tbl, _ := walTable(t)
	tx := e.Begin()
	tbl.Insert(tx, row("a", "1"))
	e.Commit(tx)
	img := e.LogImage()
	// Append garbage where the next flush would have landed: a torn,
	// undecodable half-record with no commit beyond it.
	r := wal.NewReaderFromBytes(img)
	for {
		if _, ok := r.Next(); !ok {
			break
		}
	}
	copy(img[r.Offset():], []byte{0x17, 0x99, 0x42})

	e2, tbl2, ix2 := walTable(t)
	applied, err := e2.Recover(img)
	if err != nil {
		t.Fatalf("torn tail must not be an error: %v", err)
	}
	if applied != 1 {
		t.Fatalf("applied %d, want 1", applied)
	}
	if got := snapshotState(t, e2, tbl2, ix2); got["a"] != "1" {
		t.Fatalf("state wrong: %v", got)
	}
}

// TestRecoverLogFlushFailureIsAnError: replay re-logs every transaction it
// commits into the fresh engine's own log, so a device that refuses the log's
// writes fails that commit. Recover returns the failure, wrapping
// storage.ErrIOFault, instead of panicking: a supervisor's restart attempt
// fails and the process survives. Both replayed commits are covered: a
// logged transaction and a checkpoint snapshot at the head of the log.
func TestRecoverLogFlushFailureIsAnError(t *testing.T) {
	for _, checkpoint := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpoint=%v", checkpoint), func(t *testing.T) {
			e, tbl, _ := walTable(t)
			tx := e.Begin()
			if _, _, err := tbl.Insert(tx, row("a", "1")); err != nil {
				t.Fatal(err)
			}
			e.Commit(tx)
			if checkpoint {
				if err := e.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			img := e.LogImage()

			e2, _, _ := walTable(t)
			e2.Dev.ArmFault(ssd.FaultRule{Kind: ssd.FaultWriteErr, Class: int(sfile.ClassMeta), Sticky: true})
			if _, err := e2.Recover(img); !errors.Is(err, storage.ErrIOFault) {
				t.Fatalf("Recover under a failing log device returned %v, want an error wrapping storage.ErrIOFault", err)
			}
		})
	}
}
