package check

import (
	"bytes"
	"testing"

	"mvpbt/internal/txn"
)

// otx fabricates an engine-shaped transaction handle for direct oracle
// tests: Xmax is the transaction's own id (as the engine's Begin does) and
// active lists the concurrently open transactions at snapshot time.
func otx(id txn.TxID, active ...txn.TxID) *txn.Tx {
	return &txn.Tx{ID: id, Snap: txn.Snapshot{Xmin: 1, Xmax: id, Active: active}}
}

func row(key, val string) []byte {
	r := []byte{byte(len(key))}
	r = append(r, key...)
	return append(r, val...)
}

func rowsOf(vrs []VisRow) []string {
	var out []string
	for _, vr := range vrs {
		out = append(out, string(vr.Row))
	}
	return out
}

func TestOracleSnapshotVisibility(t *testing.T) {
	o := NewOracle(keyExtract)

	// T2 inserts and commits k1.
	o.Begin(otx(2))
	o.Insert(2, row("k1", "v1"))
	o.Commit(2)

	// T3 opens after the commit: sees v1. T4 opens with T3 active.
	o.Begin(otx(3))
	if got := rowsOf(o.LookupVisible(3, []byte("k1"))); len(got) != 1 || got[0] != string(row("k1", "v1")) {
		t.Fatalf("T3 sees %v, want [k1v1]", got)
	}

	// T3 updates k1 but has not committed: T4 must still see v1, T3 its own v2.
	tup := tupleByRow(o, row("k1", "v1"))
	if tup == nil {
		t.Fatal("tuple not found")
	}
	if !o.Write(3, tup, row("k1", "v2")) {
		t.Fatal("T3 update unexpectedly conflicted")
	}
	o.Begin(otx(4, 3))
	if got := rowsOf(o.LookupVisible(4, []byte("k1"))); len(got) != 1 || got[0] != string(row("k1", "v1")) {
		t.Fatalf("T4 sees %v, want old version while T3 uncommitted", got)
	}
	if got := rowsOf(o.LookupVisible(3, []byte("k1"))); len(got) != 1 || got[0] != string(row("k1", "v2")) {
		t.Fatalf("T3 sees %v, want its own write", got)
	}

	// Even after T3 commits, T4's snapshot listed T3 active: still v1.
	o.Commit(3)
	if got := rowsOf(o.LookupVisible(4, []byte("k1"))); len(got) != 1 || got[0] != string(row("k1", "v1")) {
		t.Fatalf("T4 sees %v after T3 commit, want snapshot-time version", got)
	}

	// A transaction opened after the commit sees v2.
	o.Begin(otx(5))
	if got := rowsOf(o.LookupVisible(5, []byte("k1"))); len(got) != 1 || got[0] != string(row("k1", "v2")) {
		t.Fatalf("T5 sees %v, want committed update", got)
	}
}

func TestOracleFirstUpdaterWins(t *testing.T) {
	o := NewOracle(keyExtract)
	o.Begin(otx(2))
	tup := o.Insert(2, row("k1", "v1"))
	o.Commit(2)

	// T3 and T4 both open, T3 updates first (uncommitted).
	o.Begin(otx(3))
	o.Begin(otx(4, 3))
	if !o.Write(3, tup, row("k1", "v3")) {
		t.Fatal("first updater should win")
	}
	// T4 conflicts against the in-progress invalidation...
	if o.Write(4, tup, row("k1", "v4")) {
		t.Fatal("second updater should conflict while first is in progress")
	}
	// ...and still after it commits.
	o.Commit(3)
	if o.Write(4, tup, row("k1", "v4")) {
		t.Fatal("second updater should conflict after first commits")
	}

	// But when the first updater aborts, the second may proceed.
	o.Begin(otx(5))
	o.Begin(otx(6, 5))
	if !o.Write(5, tup, row("k1", "v5")) {
		t.Fatal("T5 update should succeed")
	}
	o.Abort(5)
	if !o.Write(6, tup, row("k1", "v6")) {
		t.Fatal("aborted invalidation must not block a new updater")
	}
}

func TestOracleOccupied(t *testing.T) {
	o := NewOracle(keyExtract)
	if o.Occupied([]byte("k1")) {
		t.Fatal("empty oracle reports k1 occupied")
	}
	o.Begin(otx(2))
	tup := o.Insert(2, row("k1", "v1"))
	if !o.Occupied([]byte("k1")) {
		t.Fatal("uncommitted insert should occupy the key (it may commit)")
	}
	o.Commit(2)
	if !o.Occupied([]byte("k1")) {
		t.Fatal("committed row should occupy the key")
	}
	// An uncommitted delete still occupies (it may abort) ...
	o.Begin(otx(3))
	if !o.Write(3, tup, nil) {
		t.Fatal("delete failed")
	}
	if !o.Occupied([]byte("k1")) {
		t.Fatal("uncommitted delete should keep the key occupied")
	}
	// ... a committed delete frees it.
	o.Commit(3)
	if o.Occupied([]byte("k1")) {
		t.Fatal("committed delete should free the key")
	}
	// An aborted insert never occupies.
	o.Begin(otx(4))
	o.Insert(4, row("k2", "v1"))
	o.Abort(4)
	if o.Occupied([]byte("k2")) {
		t.Fatal("aborted insert should not occupy the key")
	}
}

func TestOracleRestart(t *testing.T) {
	o := NewOracle(keyExtract)
	o.Begin(otx(2))
	o.Insert(2, row("k1", "v1"))
	o.Commit(2)
	o.Begin(otx(3))
	surv := o.Insert(3, row("k2", "v1"))
	o.Commit(3)
	o.Begin(otx(4))
	o.Write(4, surv, row("k2", "v2")) // uncommitted update: lost on crash
	o.Begin(otx(5))
	o.Insert(5, row("k3", "v1")) // uncommitted insert: lost on crash

	o.Restart()

	rows := rowsOf(o.CommittedRows())
	want := []string{string(row("k1", "v1")), string(row("k2", "v1"))}
	if len(rows) != len(want) || rows[0] != want[0] || rows[1] != want[1] {
		t.Fatalf("post-restart committed rows %v, want %v", rows, want)
	}
	// Survivors are reborn as bootTxID versions visible to a fresh snapshot.
	o.Begin(otx(7))
	if got := rowsOf(o.ScanVisible(7, []byte("k"), nil)); len(got) != 2 {
		t.Fatalf("fresh snapshot sees %v, want both survivors", got)
	}
	// The uncommitted update and insert are gone for good.
	if tupleByRow(o, row("k2", "v2")) != nil || tupleByRow(o, row("k3", "v1")) != nil {
		t.Fatal("in-flight writes survived the restart")
	}
}

func TestUniquePerKey(t *testing.T) {
	mk := func(key, val string, create txn.TxID) VisRow {
		return VisRow{Tuple: &Tuple{}, Row: row(key, val), Create: create}
	}
	in := []VisRow{
		mk("a", "1", 5),
		mk("b", "1", 3),
		mk("b", "2", 7), // newer creator decides key b
		mk("b", "3", 6),
		mk("c", "1", 2),
	}
	out := UniquePerKey(keyExtract, in)
	if len(out) != 3 {
		t.Fatalf("got %d rows, want 3", len(out))
	}
	wantRows := [][]byte{row("a", "1"), row("b", "2"), row("c", "1")}
	for i, w := range wantRows {
		if !bytes.Equal(out[i].Row, w) {
			t.Fatalf("row %d: got %q, want %q", i, out[i].Row, w)
		}
	}
	if out := UniquePerKey(keyExtract, nil); out != nil {
		t.Fatalf("empty input should stay empty, got %v", out)
	}
}

// tupleByRow finds the tuple one of whose versions carries exactly row.
// The harness keeps all row payloads globally unique, so the mapping is
// unambiguous; nil when unknown.
func tupleByRow(o *Oracle, row []byte) *Tuple {
	for _, t := range o.tuples {
		for i := range t.versions {
			if bytes.Equal(t.versions[i].row, row) {
				return t
			}
		}
	}
	return nil
}
