// Command mvpbt-inspect runs a small workload against an MV-PBT and dumps
// the resulting structure: partition metadata, the index records of one key
// (matter/anti-matter, timestamps), what a fresh and a long-running
// snapshot see, and the engine's counters as a shard.ShardStats, the
// report a server gives of each shard. A teaching and debugging tool. With
// -addr it instead prints a running mvpbt-server's STATS reply,
// shard.Report (every shard's health, space, WAL, checkpoint, 2PC, MV-PBT,
// buffer pool and device counters, and the coordinator log's). Both print
// indented JSON through one printer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"mvpbt/internal/db"
	"mvpbt/internal/server/shardclient"
	"mvpbt/internal/shard"
	"mvpbt/internal/txn"
)

func main() {
	var (
		tuples   = flag.Int("tuples", 200, "number of tuples")
		updates  = flag.Int("updates", 5, "updates per tuple")
		pbuf     = flag.Int("pbuf", 32<<10, "partition buffer bytes")
		key      = flag.String("key", "key-000", "key whose index records to dump")
		capacity = flag.Int64("capacity", 64<<20, "device capacity budget in bytes (0 = unbounded)")
		addr     = flag.String("addr", "", "print the report of the mvpbt-server at this address instead of running an engine")
	)
	flag.Parse()

	if *addr != "" {
		if err := printReport(*addr); err != nil {
			fmt.Fprintln(os.Stderr, "mvpbt-inspect:", err)
			os.Exit(1)
		}
		return
	}

	eng := db.NewEngine(db.Config{
		BufferPages: 1024, PartitionBufferBytes: *pbuf,
		EnableWAL: true, DeviceCapacityBytes: *capacity,
	})
	defer eng.Close()
	tbl, err := eng.NewTable("demo", db.HeapSIAS, db.IndexDef{
		Name: "pk", Kind: db.IdxMVPBT, Unique: true, BloomBits: 10,
		Extract: func(row []byte) []byte { return row[1 : 1+int(row[0])] },
	})
	if err != nil {
		panic(err)
	}
	ix := tbl.Indexes()[0]

	row := func(k, v string) []byte {
		out := []byte{byte(len(k))}
		out = append(out, k...)
		return append(out, v...)
	}
	keyOf := func(i int) string { return fmt.Sprintf("key-%03d", i) }

	// A long-running reader pins all versions, like the paper's Figure 1.
	var long *txn.Tx
	for round := 0; round <= *updates; round++ {
		tx := eng.Begin()
		for i := 0; i < *tuples; i++ {
			k := keyOf(i)
			if round == 0 {
				if _, _, err := tbl.Insert(tx, row(k, "v0")); err != nil {
					panic(err)
				}
				continue
			}
			cur, found, err := tbl.LookupOne(tx, ix, []byte(k), true)
			if err != nil || !found {
				panic(fmt.Sprintf("lookup %s: %v %v", k, found, err))
			}
			if _, err := tbl.Update(tx, cur, row(k, fmt.Sprintf("v%d", round))); err != nil {
				panic(err)
			}
		}
		eng.Commit(tx)
		if round == 0 {
			long = eng.Begin()
		}
	}

	mv := ix.MV()
	fmt.Printf("== MV-PBT structure after %d tuples x %d updates ==\n", *tuples, *updates)
	fmt.Printf("PN: %d bytes in memory\n", mv.PNBytes())
	collectable := mv.Collectable()
	for i, p := range mv.Partitions() {
		fmt.Printf("P%-3d leaves=%-4d fenceB=%-5d records=%-6d collectable=%-6d keys [%q .. %q] ts [%d..%d]",
			p.No, p.NumLeaves, p.FenceBytes(), p.NumRecords, collectable[i], p.MinKey(), p.MaxKey(), p.MinTS, p.MaxTS)
		if p.Filter != nil {
			fmt.Printf(" bloom=%dB", p.Filter.SizeBytes())
		}
		fmt.Println()
	}
	fmt.Println()

	fmt.Printf("== index records for %q (PN first, partitions newest to oldest) ==\n", *key)
	dump, err := mv.DumpKey([]byte(*key))
	for _, d := range dump {
		fmt.Println(d)
	}
	if err != nil {
		fmt.Println("dump stopped:", err)
	}

	fresh := eng.Begin()
	fmt.Printf("\nfresh snapshot sees: %s\n", val(tbl.LookupOne(fresh, ix, []byte(*key), true)))
	fmt.Printf("long-running reader (Figure 1) sees: %s\n", val(tbl.LookupOne(long, ix, []byte(*key), true)))
	eng.Commit(fresh)
	eng.Commit(long)

	// The counters are the shard report's, filled by the function the
	// server's STATS uses, after a checkpoint (every transaction is done,
	// so its quiescence precondition holds) so that Checkpoint shows the
	// log's size before and after it.
	if err := eng.Checkpoint(); err != nil {
		fmt.Printf("checkpoint: %v\n", err)
	}
	var st shard.ShardStats
	st.Fill(eng, mv)
	fmt.Printf("\n== report ==\n")
	if err := printJSON(st); err != nil {
		panic(err)
	}
}

func val(rr db.RowRef, found bool, _ error) string {
	if !found {
		return "<nothing>"
	}
	return string(rr.Row[1+int(rr.Row[0]):])
}

// printReport prints the report of the server at addr. The reply is decoded
// into shard.Report first, so a reply that is not one fails here.
func printReport(addr string) error {
	c, err := shardclient.Dial(addr, "mvpbt-inspect")
	if err != nil {
		return err
	}
	defer c.Close()
	var rep shard.Report
	st, err := c.Stats()
	if err == nil {
		err = json.Unmarshal([]byte(st), &rep)
	}
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	return printJSON(rep)
}

// printJSON prints v as indented JSON: the one printer of both modes.
func printJSON(v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		fmt.Println(string(out))
	}
	return err
}
