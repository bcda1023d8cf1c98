package db

import (
	"fmt"
	"strings"
	"testing"

	"mvpbt/internal/wal"
)

// TestTableAndKVInOneEngine: tables and durable KV stores are one registry
// keyed by name. A second store of a name is refused from either side and the
// first keeps working; an engine holding one of each gets both back from its
// log, before and after a checkpoint, which streams them in ONE name order
// (no driver builds such an engine: this pins the order for the day one does);
// and a log naming a store the engine does not hold is refused.
func TestTableAndKVInOneEngine(t *testing.T) {
	build := func() (*Engine, *Table, *MVPBTKV) {
		e, tbl, _ := walTable(t) // the table "accounts"
		kv, err := NewMVPBTKV(e, "a-kv", MVPBTKVOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return e, tbl, kv
	}
	e, tbl, kv := build()
	defer e.Close()
	for _, name := range []string{"accounts", "a-kv"} {
		_, terr := e.NewTable(name, HeapHOT, IndexDef{Name: "pk", Kind: IdxBTree, Extract: keyExtract})
		_, kerr := NewMVPBTKV(e, name, MVPBTKVOptions{})
		if terr == nil || kerr == nil {
			t.Errorf("a second store %q was accepted: as a table %v, as a durable KV %v", name, terr, kerr)
		}
	}

	write := func(round int) {
		insertN(t, e, tbl, 20*round, 20*round+20)
		for i := 0; i < 20; i++ {
			if err := kv.Put([]byte(fmt.Sprintf("key-%02d", i)), []byte(fmt.Sprintf("v%d-%d", round, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	state := func(e *Engine, tbl *Table, kv *MVPBTKV) string {
		pairs := map[string]string{}
		if err := kv.Scan(nil, 1000, func(k, v []byte) bool { pairs[string(k)] = string(v); return true }); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(snapshotState(t, e, tbl, tbl.Indexes()[0]), pairs) // fmt prints maps in key order
	}
	recovered := func(what string) {
		t.Helper()
		e2, tbl2, kv2 := build()
		defer e2.Close()
		_, err := e2.Recover(e.LogImage())
		if got, want := state(e2, tbl2, kv2), state(e, tbl, kv); err != nil || got != want {
			t.Fatalf("%s: recovered %s (%v), want %s", what, got, err, want)
		}
	}

	write(0)
	recovered("log since birth")
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The snapshot generation: every row of "a-kv", then every row of
	// "accounts" — name order, whichever kind of store bears the name.
	var order []string
	for r := wal.NewReaderFromBytes(e.LogImage()); ; {
		rec, ok := r.Next()
		if !ok {
			break
		}
		if rec.Op == wal.OpCkptRow && (len(order) == 0 || order[len(order)-1] != rec.Table) {
			order = append(order, rec.Table)
		}
	}
	if fmt.Sprint(order) != "[a-kv accounts]" {
		t.Fatalf("checkpoint streamed its stores in the order %v", order)
	}
	write(1)
	recovered("snapshot and suffix")

	bare, _, _ := walTable(t) // no "a-kv"
	defer bare.Close()
	if _, err := bare.Recover(e.LogImage()); err == nil || !strings.Contains(err.Error(), `unknown table "a-kv"`) {
		t.Fatalf("recovering a log that names a missing store: %v", err)
	}
}
