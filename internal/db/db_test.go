package db

import (
	"bytes"
	"fmt"
	"testing"

	"mvpbt/internal/heap"
	"mvpbt/internal/util"
)

// Test rows: [keyLen][key][rest]. The index key is the embedded key.
func encodeKVRow(key, val []byte) []byte {
	row := make([]byte, 0, 1+len(key)+len(val))
	row = append(row, byte(len(key)))
	row = append(row, key...)
	return append(row, val...)
}

func kvValue(row []byte) []byte { return row[1+int(row[0]):] }

func row(key, rest string) []byte { return encodeKVRow([]byte(key), []byte(rest)) }

func keyExtract(r []byte) []byte { return r[1 : 1+int(r[0])] }

type combo struct {
	name string
	hk   HeapKind
	ik   IndexKind
	rm   RefMode
}

func combos() []combo {
	return []combo{
		{"hot-btree-pr", HeapHOT, IdxBTree, RefPhysical},
		{"sias-btree-pr", HeapSIAS, IdxBTree, RefPhysical},
		{"sias-btree-lr", HeapSIAS, IdxBTree, RefLogical},
		{"sias-pbt-pr", HeapSIAS, IdxPBT, RefPhysical},
		{"sias-pbt-lr", HeapSIAS, IdxPBT, RefLogical},
		{"sias-mvpbt", HeapSIAS, IdxMVPBT, RefPhysical},
	}
}

func newTable(t *testing.T, c combo) (*Engine, *Table, *Index) {
	t.Helper()
	e := NewEngine(Config{BufferPages: 1024, PartitionBufferBytes: 1 << 22})
	tbl, err := e.NewTable("t_"+c.name, c.hk, IndexDef{
		Name: "pk", Kind: c.ik, RefMode: c.rm, Unique: true,
		BloomBits: 10, Extract: keyExtract,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, tbl, tbl.Indexes()[0]
}

func TestInsertLookupAllCombos(t *testing.T) {
	for _, c := range combos() {
		t.Run(c.name, func(t *testing.T) {
			e, tbl, ix := newTable(t, c)
			tx := e.Begin()
			for i := 0; i < 200; i++ {
				if _, _, err := tbl.Insert(tx, row(fmt.Sprintf("k%04d", i), fmt.Sprintf("v%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			e.Commit(tx)
			r := e.Begin()
			defer e.Commit(r)
			for i := 0; i < 200; i += 17 {
				rr, found, err := tbl.LookupOne(r, ix, []byte(fmt.Sprintf("k%04d", i)), true)
				if err != nil {
					t.Fatal(err)
				}
				if !found || string(kvValue(rr.Row)) != fmt.Sprintf("v%d", i) {
					t.Fatalf("key %d: %+v", i, rr)
				}
			}
			if _, found, _ := tbl.LookupOne(r, ix, []byte("absent"), true); found {
				t.Fatal("absent key found")
			}
		})
	}
}

func TestUpdateVisibilityAllCombos(t *testing.T) {
	for _, c := range combos() {
		t.Run(c.name, func(t *testing.T) {
			e, tbl, ix := newTable(t, c)
			tx := e.Begin()
			_, _, err := tbl.Insert(tx, row("kA", "v0"))
			if err != nil {
				t.Fatal(err)
			}
			e.Commit(tx)

			long := e.Begin() // long-running reader pins v0

			// Three committed non-key updates.
			for i := 1; i <= 3; i++ {
				u := e.Begin()
				cur, found, err := tbl.LookupOne(u, ix, []byte("kA"), true)
				if err != nil || !found {
					t.Fatalf("update %d: lookup %v %v", i, cur, err)
				}
				if _, err := tbl.Update(u, cur, row("kA", fmt.Sprintf("v%d", i))); err != nil {
					t.Fatal(err)
				}
				e.Commit(u)
			}

			if rr, found, _ := tbl.LookupOne(long, ix, []byte("kA"), true); !found || string(kvValue(rr.Row)) != "v0" {
				t.Fatalf("long reader sees %+v, want v0", rr)
			}
			fresh := e.Begin()
			if rr, found, _ := tbl.LookupOne(fresh, ix, []byte("kA"), true); !found || string(kvValue(rr.Row)) != "v3" {
				t.Fatalf("fresh reader sees %+v, want v3", rr)
			}
			e.Commit(long)
			e.Commit(fresh)
		})
	}
}

func TestKeyUpdateAllCombos(t *testing.T) {
	for _, c := range combos() {
		t.Run(c.name, func(t *testing.T) {
			e, tbl, ix := newTable(t, c)
			tx := e.Begin()
			tbl.Insert(tx, row("key7", "payload"))
			e.Commit(tx)
			before := e.Begin()

			u := e.Begin()
			cur, _, _ := tbl.LookupOne(u, ix, []byte("key7"), true)
			if _, err := tbl.Update(u, cur, row("key1", "payload")); err != nil {
				t.Fatal(err)
			}
			e.Commit(u)

			after := e.Begin()
			if rr, found, _ := tbl.LookupOne(after, ix, []byte("key7"), true); found {
				t.Fatalf("old key visible after key update: %+v", rr)
			}
			if _, found, _ := tbl.LookupOne(after, ix, []byte("key1"), true); !found {
				t.Fatal("new key invisible after key update")
			}
			if _, found, _ := tbl.LookupOne(before, ix, []byte("key7"), true); !found {
				t.Fatal("old snapshot lost old key")
			}
			if _, found, _ := tbl.LookupOne(before, ix, []byte("key1"), true); found {
				t.Fatal("old snapshot sees new key")
			}
			e.Commit(before)
			e.Commit(after)
		})
	}
}

func TestDeleteAllCombos(t *testing.T) {
	for _, c := range combos() {
		t.Run(c.name, func(t *testing.T) {
			e, tbl, ix := newTable(t, c)
			tx := e.Begin()
			tbl.Insert(tx, row("kD", "x"))
			e.Commit(tx)
			before := e.Begin()
			d := e.Begin()
			cur, _, _ := tbl.LookupOne(d, ix, []byte("kD"), true)
			if err := tbl.Delete(d, cur); err != nil {
				t.Fatal(err)
			}
			e.Commit(d)
			after := e.Begin()
			if _, found, _ := tbl.LookupOne(after, ix, []byte("kD"), true); found {
				t.Fatal("deleted tuple visible")
			}
			if _, found, _ := tbl.LookupOne(before, ix, []byte("kD"), true); !found {
				t.Fatal("pre-delete snapshot lost tuple")
			}
			e.Commit(before)
			e.Commit(after)
		})
	}
}

func TestScanCountAllCombos(t *testing.T) {
	for _, c := range combos() {
		t.Run(c.name, func(t *testing.T) {
			e, tbl, ix := newTable(t, c)
			tx := e.Begin()
			for i := 0; i < 100; i++ {
				tbl.Insert(tx, row(fmt.Sprintf("k%04d", i), "v"))
			}
			e.Commit(tx)
			// Update a third, delete a tenth.
			u := e.Begin()
			for i := 0; i < 100; i += 3 {
				cur, _, _ := tbl.LookupOne(u, ix, []byte(fmt.Sprintf("k%04d", i)), true)
				tbl.Update(u, cur, row(fmt.Sprintf("k%04d", i), "v2"))
			}
			for i := 5; i < 100; i += 10 {
				cur, _, _ := tbl.LookupOne(u, ix, []byte(fmt.Sprintf("k%04d", i)), true)
				tbl.Delete(u, cur)
			}
			e.Commit(u)
			r := e.Begin()
			defer e.Commit(r)
			n, err := tbl.Count(r, ix, []byte("k0000"), []byte("k0100"))
			if err != nil {
				t.Fatal(err)
			}
			if n != 90 {
				t.Fatalf("count=%d want 90", n)
			}
		})
	}
}

func TestWriteConflictSurfaces(t *testing.T) {
	for _, c := range combos() {
		t.Run(c.name, func(t *testing.T) {
			e, tbl, ix := newTable(t, c)
			tx := e.Begin()
			tbl.Insert(tx, row("kC", "v0"))
			e.Commit(tx)
			t1 := e.Begin()
			t2 := e.Begin()
			cur1, _, _ := tbl.LookupOne(t1, ix, []byte("kC"), true)
			cur2, _, _ := tbl.LookupOne(t2, ix, []byte("kC"), true)
			if _, err := tbl.Update(t1, cur1, row("kC", "a")); err != nil {
				t.Fatal(err)
			}
			if _, err := tbl.Update(t2, cur2, row("kC", "b")); err != heap.ErrWriteConflict {
				t.Fatalf("want conflict, got %v", err)
			}
			e.Commit(t1)
			e.Abort(t2)
		})
	}
}

// TestSection2CostModel verifies the paper's §2 claim: with a
// version-oblivious B-Tree, COUNT(*) pays COST(index scan) + one random
// base-table read per matching tuple-version, while MV-PBT's index-only
// visibility check touches no base-table pages.
func TestSection2CostModel(t *testing.T) {
	build := func(ik IndexKind) (*Engine, *Table, *Index) {
		e := NewEngine(Config{BufferPages: 64, PartitionBufferBytes: 1 << 22})
		tbl, err := e.NewTable("r", HeapSIAS, IndexDef{
			Name: "a", Kind: ik, RefMode: RefPhysical, Unique: true, BloomBits: 10, Extract: keyExtract,
		})
		if err != nil {
			t.Fatal(err)
		}
		ix := tbl.Indexes()[0]
		// Figure 2's scenario at scale: tuples with several versions each.
		tx := e.Begin()
		for i := 0; i < 500; i++ {
			tbl.Insert(tx, row(fmt.Sprintf("a%04d", i), "v0"))
		}
		e.Commit(tx)
		for v := 1; v <= 3; v++ {
			u := e.Begin()
			for i := 0; i < 500; i++ {
				cur, found, _ := tbl.LookupOne(u, ix, []byte(fmt.Sprintf("a%04d", i)), true)
				if found {
					tbl.Update(u, cur, row(fmt.Sprintf("a%04d", i), fmt.Sprintf("v%d", v)))
				}
			}
			e.Commit(u)
		}
		e.Pool.FlushAll()
		return e, tbl, ix
	}

	eb, tb, ib := build(IdxBTree)
	em, tm, im := build(IdxMVPBT)

	rb := eb.Begin()
	beforeB := eb.Pool.Stats()
	n1, err := tb.Count(rb, ib, []byte("a0000"), []byte("a9999"))
	if err != nil {
		t.Fatal(err)
	}
	tableReqsB := eb.Pool.Stats()[1].Requests - beforeB[1].Requests // ClassTable == 0? see below
	_ = tableReqsB
	eb.Commit(rb)

	rm := em.Begin()
	beforeM := em.Pool.Stats()
	n2, err := tm.Count(rm, im, []byte("a0000"), []byte("a9999"))
	if err != nil {
		t.Fatal(err)
	}
	afterM := em.Pool.Stats()
	em.Commit(rm)

	if n1 != 500 || n2 != 500 {
		t.Fatalf("counts wrong: btree=%d mvpbt=%d", n1, n2)
	}
	// MV-PBT: zero base-table page requests during the count.
	tableDelta := afterM[0].Requests - beforeM[0].Requests // sfile.ClassTable = 0
	if tableDelta != 0 {
		t.Fatalf("MV-PBT count touched %d base-table pages", tableDelta)
	}
	// B-Tree: at least one base-table request per matching version.
	afterB := eb.Pool.Stats()
	btDelta := afterB[0].Requests - beforeB[0].Requests
	if btDelta < 500 {
		t.Fatalf("B-Tree count should chain-walk the base table: %d requests", btDelta)
	}
}

func TestRandomizedCrossEngineEquivalence(t *testing.T) {
	// Drive the same committed history through all combos and require
	// identical scan results.
	type state struct {
		e   *Engine
		tbl *Table
		ix  *Index
	}
	var engines []state
	for _, c := range combos() {
		e, tbl, ix := newTable(t, c)
		engines = append(engines, state{e, tbl, ix})
	}
	r := util.NewRand(99)
	live := map[string]bool{}
	for step := 0; step < 800; step++ {
		k := fmt.Sprintf("k%03d", r.Intn(120))
		op := r.Intn(10)
		for _, s := range engines {
			tx := s.e.Begin()
			cur, found, err := s.tbl.LookupOne(tx, s.ix, []byte(k), true)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case !found:
				s.tbl.Insert(tx, row(k, fmt.Sprintf("s%d", step)))
			case op == 0:
				s.tbl.Delete(tx, cur)
			default:
				s.tbl.Update(tx, cur, row(k, fmt.Sprintf("s%d", step)))
			}
			s.e.Commit(tx)
		}
		if live[k] && op == 0 {
			delete(live, k)
		} else {
			live[k] = true
		}
	}
	// Compare full scans across engines.
	var ref map[string]string
	for i, s := range engines {
		tx := s.e.Begin()
		got := map[string]string{}
		err := s.tbl.Scan(tx, s.ix, []byte("k"), []byte("l"), true, func(rr RowRef) bool {
			got[string(keyExtract(rr.Row))] = string(kvValue(rr.Row))
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		s.e.Commit(tx)
		if len(got) != len(live) {
			t.Fatalf("engine %d: %d live rows, want %d", i, len(got), len(live))
		}
		if i == 0 {
			ref = got
			continue
		}
		for k, v := range ref {
			if got[k] != v {
				t.Fatalf("engine %d diverged on %s: %q vs %q", i, k, got[k], v)
			}
		}
	}
}

func TestNoIdxVCAblation(t *testing.T) {
	// MV-PBT with NoIdxVC must return the same results through the
	// base-table path.
	e := NewEngine(Config{BufferPages: 512, PartitionBufferBytes: 1 << 22})
	tbl, err := e.NewTable("t", HeapSIAS,
		IndexDef{Name: "vc", Kind: IdxMVPBT, Unique: true, Extract: keyExtract},
		IndexDef{Name: "novc", Kind: IdxMVPBT, Unique: true, Extract: keyExtract, NoIdxVC: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	for i := 0; i < 50; i++ {
		tbl.Insert(tx, row(fmt.Sprintf("k%03d", i), "v"))
	}
	e.Commit(tx)
	u := e.Begin()
	for i := 0; i < 50; i += 2 {
		cur, _, _ := tbl.LookupOne(u, tbl.Index("vc"), []byte(fmt.Sprintf("k%03d", i)), true)
		tbl.Update(u, cur, row(fmt.Sprintf("k%03d", i), "v2"))
	}
	e.Commit(u)
	r := e.Begin()
	defer e.Commit(r)
	n1, _ := tbl.Count(r, tbl.Index("vc"), []byte("k"), []byte("l"))
	n2, _ := tbl.Count(r, tbl.Index("novc"), []byte("k"), []byte("l"))
	if n1 != 50 || n2 != 50 {
		t.Fatalf("counts diverge: idxVC=%d noIdxVC=%d", n1, n2)
	}
}

func TestSecondaryIndexMaintenance(t *testing.T) {
	// A secondary (non-unique) MV-PBT index over the value field.
	e := NewEngine(Config{BufferPages: 512, PartitionBufferBytes: 1 << 22})
	valExtract := func(r []byte) []byte { return kvValue(r)[:2] }
	tbl, err := e.NewTable("t", HeapSIAS,
		IndexDef{Name: "pk", Kind: IdxMVPBT, Unique: true, Extract: keyExtract},
		IndexDef{Name: "sec", Kind: IdxMVPBT, Extract: valExtract},
	)
	if err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	for i := 0; i < 30; i++ {
		grp := "g" + string(rune('0'+i%3))
		tbl.Insert(tx, row(fmt.Sprintf("k%03d", i), grp+"-rest"))
	}
	e.Commit(tx)
	r := e.Begin()
	n, _ := tbl.Count(r, tbl.Index("sec"), []byte("g0"), []byte("g1"))
	if n != 10 {
		t.Fatalf("secondary count=%d want 10", n)
	}
	e.Commit(r)
	// Move one tuple from group g0 to g2 (secondary key update).
	u := e.Begin()
	cur, _, _ := tbl.LookupOne(u, tbl.Index("pk"), []byte("k000"), true)
	tbl.Update(u, cur, row("k000", "g2-rest"))
	e.Commit(u)
	r2 := e.Begin()
	defer e.Commit(r2)
	n0, _ := tbl.Count(r2, tbl.Index("sec"), []byte("g0"), []byte("g1"))
	n2, _ := tbl.Count(r2, tbl.Index("sec"), []byte("g2"), []byte("g3"))
	if n0 != 9 || n2 != 11 {
		t.Fatalf("after secondary key update: g0=%d g2=%d", n0, n2)
	}
}

var _ = bytes.Equal
