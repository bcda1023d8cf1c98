// Quickstart: open an engine, create a table with an MV-PBT primary
// index, and run transactional inserts, updates, deletes and snapshot
// reads through the public API.
package main

import (
	"fmt"

	"mvpbt"
)

// Rows are [keyLen][key][value]; the index key is the embedded key.
func row(key, value string) []byte {
	out := []byte{byte(len(key))}
	out = append(out, key...)
	return append(out, value...)
}

func keyOf(r []byte) []byte   { return r[1 : 1+int(r[0])] }
func valueOf(r []byte) string { return string(r[1+int(r[0]):]) }

func main() {
	eng := mvpbt.NewEngine(mvpbt.Config{})
	accounts, err := eng.NewTable("accounts", mvpbt.HeapSIAS, mvpbt.IndexDef{
		Name: "pk", Kind: mvpbt.IdxMVPBT, Unique: true, BloomBits: 10,
		Extract: keyOf,
	})
	if err != nil {
		panic(err)
	}
	pk := accounts.Indexes()[0]

	// Insert a few accounts in one transaction.
	tx := eng.Begin()
	for _, name := range []string{"alice", "bob", "carol"} {
		if _, _, err := accounts.Insert(tx, row(name, "balance=100")); err != nil {
			panic(err)
		}
	}
	eng.Commit(tx)

	// Update bob under MVCC: read the visible version, then supersede it.
	tx = eng.Begin()
	cur, found, err := accounts.LookupOne(tx, pk, []byte("bob"), true)
	if err != nil || !found {
		panic(fmt.Sprint("lookup bob: ", found, err))
	}
	if _, err := accounts.Update(tx, cur, row("bob", "balance=250")); err != nil {
		panic(err)
	}
	eng.Commit(tx)

	// Delete carol.
	tx = eng.Begin()
	cur, _, _ = accounts.LookupOne(tx, pk, []byte("carol"), true)
	if err := accounts.Delete(tx, cur); err != nil {
		panic(err)
	}
	eng.Commit(tx)

	// A fresh snapshot sees the updated state...
	read := eng.Begin()
	fmt.Println("current snapshot:")
	err = accounts.Scan(read, pk, []byte("a"), []byte("z"), true, func(r mvpbt.RowRef) bool {
		fmt.Printf("  %s -> %s\n", r.Key, valueOf(r.Row))
		return true
	})
	if err != nil {
		panic(err)
	}
	eng.Commit(read)

	// ...and COUNT(*) runs index-only: no base-table page is touched.
	read = eng.Begin()
	n, err := accounts.Count(read, pk, []byte("a"), []byte("z"))
	if err != nil {
		panic(err)
	}
	fmt.Printf("count(*) via index-only visibility check: %d\n", n)
	eng.Commit(read)
}
