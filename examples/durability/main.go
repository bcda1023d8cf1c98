// Durability: run transactions against a WAL-enabled engine, "crash"
// (throw the in-memory engine away, keeping only the log image that
// reached the device), then recover into a fresh engine and verify that
// exactly the committed state survives — including a transaction whose
// commit never reached the log.
package main

import (
	"fmt"

	"mvpbt"
)

func row(key, value string) []byte {
	out := []byte{byte(len(key))}
	out = append(out, key...)
	return append(out, value...)
}

func keyOf(r []byte) []byte   { return r[1 : 1+int(r[0])] }
func valueOf(r []byte) string { return string(r[1+int(r[0]):]) }

func newEngine() (*mvpbt.Engine, *mvpbt.Table, *mvpbt.Index) {
	eng := mvpbt.NewEngine(mvpbt.Config{EnableWAL: true})
	tbl, err := eng.NewTable("ledger", mvpbt.HeapSIAS, mvpbt.IndexDef{
		Name: "pk", Kind: mvpbt.IdxMVPBT, Unique: true, BloomBits: 10, Extract: keyOf,
	})
	if err != nil {
		panic(err)
	}
	return eng, tbl, tbl.Indexes()[0]
}

func main() {
	eng, ledger, pk := newEngine()

	// Committed work.
	tx := eng.Begin()
	ledger.Insert(tx, row("alice", "100"))
	ledger.Insert(tx, row("bob", "250"))
	eng.Commit(tx)

	tx = eng.Begin()
	cur, _, _ := ledger.LookupOne(tx, pk, []byte("alice"), true)
	ledger.Update(tx, cur, row("alice", "175"))
	eng.Commit(tx)

	// In-flight work that will be lost in the crash: logged but never
	// committed.
	inflight := eng.Begin()
	ledger.Insert(inflight, row("mallory", "999999"))

	// CRASH: all that survives is the log image on the device.
	img := eng.LogImage()
	fmt.Printf("crash! %d bytes of WAL survived on the device\n\n", len(img))

	// Recovery: rebuild the schema, replay the log.
	eng2, ledger2, pk2 := newEngine()
	applied, err := eng2.Recover(img)
	if err != nil {
		panic(err)
	}
	fmt.Printf("recovered %d committed transactions:\n", applied)
	read := eng2.Begin()
	err = ledger2.Scan(read, pk2, []byte("a"), nil, true, func(r mvpbt.RowRef) bool {
		fmt.Printf("  %s -> %s\n", r.Key, valueOf(r.Row))
		return true
	})
	if err != nil {
		panic(err)
	}
	if _, found, _ := ledger2.LookupOne(read, pk2, []byte("mallory"), false); !found {
		fmt.Println("uncommitted transaction correctly discarded")
	}
	eng2.Commit(read)
}
