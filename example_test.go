package mvpbt_test

import (
	"fmt"

	"mvpbt"
)

// row encodes [keyLen][key][value]; the index key is the embedded key.
func row(key, value string) []byte {
	out := []byte{byte(len(key))}
	out = append(out, key...)
	return append(out, value...)
}

func keyOf(r []byte) []byte { return r[1 : 1+int(r[0])] }

// Example shows the core flow: a table with an MV-PBT primary index,
// MVCC updates, and a snapshot read that keeps seeing the old version —
// the paper's Figure 1 in six statements.
func Example() {
	eng := mvpbt.NewEngine(mvpbt.Config{})
	tbl, _ := eng.NewTable("t", mvpbt.HeapSIAS, mvpbt.IndexDef{
		Name: "pk", Kind: mvpbt.IdxMVPBT, Unique: true, Extract: keyOf,
	})
	pk := tbl.Indexes()[0]

	tx := eng.Begin()
	tbl.Insert(tx, row("t", "v0"))
	eng.Commit(tx)

	long := eng.Begin() // the long-running reader TXR

	for _, v := range []string{"v1", "v2", "v3"} { // TXU1..TXU3
		u := eng.Begin()
		cur, _, _ := tbl.LookupOne(u, pk, []byte("t"), true)
		tbl.Update(u, cur, row("t", v))
		eng.Commit(u)
	}

	old, _, _ := tbl.LookupOne(long, pk, []byte("t"), true)
	fmt.Println("TXR sees:", string(old.Row[2:]))
	fresh := eng.Begin()
	cur, _, _ := tbl.LookupOne(fresh, pk, []byte("t"), true)
	fmt.Println("a new transaction sees:", string(cur.Row[2:]))
	eng.Commit(long)
	eng.Commit(fresh)
	// Output:
	// TXR sees: v0
	// a new transaction sees: v3
}

// ExampleTable_Count demonstrates the index-only visibility check: the
// COUNT touches no base-table pages at all.
func ExampleTable_Count() {
	eng := mvpbt.NewEngine(mvpbt.Config{})
	tbl, _ := eng.NewTable("t", mvpbt.HeapSIAS, mvpbt.IndexDef{
		Name: "pk", Kind: mvpbt.IdxMVPBT, Unique: true, Extract: keyOf,
	})
	tx := eng.Begin()
	for i := 0; i < 10; i++ {
		tbl.Insert(tx, row(fmt.Sprintf("k%02d", i), "v"))
	}
	eng.Commit(tx)

	read := eng.Begin()
	n, _ := tbl.Count(read, tbl.Indexes()[0], []byte("k03"), []byte("k08"))
	fmt.Println("count:", n)
	eng.Commit(read)
	// Output:
	// count: 5
}

// ExampleNewMVPBTKV demonstrates the clustered key-value engine of the
// paper's WiredTiger comparison.
func ExampleNewMVPBTKV() {
	eng := mvpbt.NewEngine(mvpbt.Config{})
	kv, _ := mvpbt.NewMVPBTKV(eng, "store", mvpbt.MVPBTKVOptions{BloomBits: 10})
	kv.Put([]byte("color"), []byte("green"))
	kv.Put([]byte("color"), []byte("blue")) // blind overwrite: just hits PN
	v, ok, _ := kv.Get([]byte("color"))
	fmt.Println(string(v), ok)
	kv.Delete([]byte("color"))
	_, ok, _ = kv.Get([]byte("color"))
	fmt.Println("after delete:", ok)
	// Output:
	// blue true
	// after delete: false
}
