// Command mvpbt-inspect runs a small workload against an MV-PBT and dumps
// the resulting structure: partition metadata, filter statistics, the
// index records of selected keys (matter/anti-matter, timestamps), and
// device counters. A teaching and debugging tool. With -addr it instead
// prints a running mvpbt-server's STATS reply, shard.Report (every shard's
// health, space, WAL, checkpoint, 2PC, MV-PBT and device counters, and the
// coordinator log's), as indented JSON.
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
			cur, err := tbl.LookupOne(tx, ix, []byte(k), true)
			if err != nil || cur == nil {
				panic(fmt.Sprintf("lookup %s: %v %v", k, cur, err))
			}
			if _, err := tbl.Update(tx, *cur, row(k, fmt.Sprintf("v%d", round))); err != nil {
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
	for _, p := range mv.Partitions() {
		fmt.Printf("P%-3d leaves=%-4d fenceB=%-5d records=%-6d keys [%q .. %q] ts [%d..%d]",
			p.No, p.NumLeaves, p.FenceBytes(), p.NumRecords, p.MinKey, p.MaxKey, p.MinTS, p.MaxTS)
		if p.Filter != nil {
			fmt.Printf(" bloom=%dB", p.Filter.SizeBytes())
		}
		fmt.Println()
	}
	st := mv.Stats()
	fmt.Printf("stats: evictions=%d merges=%d gc(marked=%d sweptPN=%d evict=%d)\n",
		st.Evictions, st.Merges, st.GCMarked, st.GCSweptPN, st.GCEvict)
	fmt.Printf("bloom: neg=%d pos=%d falsepos=%d\n",
		st.Bloom.Negatives, st.Bloom.Positives, st.Bloom.FalsePositives)
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
	cur, _ := tbl.LookupOne(fresh, ix, []byte(*key), true)
	old, _ := tbl.LookupOne(long, ix, []byte(*key), true)
	fmt.Printf("\nfresh snapshot sees: %s\n", val(cur))
	fmt.Printf("long-running reader (Figure 1) sees: %s\n", val(old))
	eng.Commit(fresh)
	eng.Commit(long)

	fmt.Printf("\n== device ==\n%v\n", eng.Dev.Stats())
	io := eng.Pool.IOStats()
	fmt.Printf("buffer pool: %d pages in %d device reads (%.2f pages/read)\n",
		io.PagesRead, io.Reads, float64(io.PagesRead)/float64(max(io.Reads, 1)))
	fmt.Printf("faults injected: [%v]\n", eng.Dev.FaultCounters())
	fmt.Printf("error path: checksum_failures=%d read_retries=%d write_retries=%d read_failures=%d write_failures=%d\n",
		io.ChecksumFailures, io.ReadRetries, io.WriteRetries, io.ReadFailures, io.WriteFailures)

	// Commit pipeline: flushes vs commits shows the lazy-begin/read-only
	// elision, and commit flushes vs durable commits how often a commit
	// found its record already flushed.
	ws := eng.WALStatsSnapshot()
	fmt.Printf("\n== commit pipeline ==\n")
	fmt.Printf("wal: flushes=%d commits=%d read-only-commits=%d flushes/commit=%.2f\n",
		ws.Flushes, ws.Commits, ws.ReadOnlyCommits, ws.FlushesPerCommit())
	fmt.Printf("wal: device-bytes=%d logical-bytes=%d device-bytes/log-byte=%.2f checkpoint-errors=%d\n",
		ws.DeviceBytes, ws.LogicalBytes, ws.DeviceBytesPerLogByte(), eng.CheckpointInfo().Errors)
	fmt.Printf("group commit: batches=%d commits=%d\n", ws.Group.Batches, ws.Group.Commits)

	// Space governance: the capacity budget, the governor's counters, and
	// the effect of a WAL checkpoint on log size (all transactions are done
	// by now, so the quiescence precondition holds).
	sp := eng.SpaceInfo()
	fmt.Printf("\n== space governance ==\n")
	fmt.Printf("device: capacity=%d live=%d high-water=%d (soft=%d hard=%d)\n",
		sp.Capacity, sp.Live, sp.HighWater, sp.Soft, sp.Hard)
	fmt.Printf("read-only: now=%v entries=%d exits=%d reclaims=%d\n",
		sp.ReadOnly, sp.ROEntries, sp.ROExits, sp.Reclaims)
	walBefore := eng.WALDeviceBytes()
	if err := eng.Checkpoint(); err != nil {
		fmt.Printf("checkpoint: %v\n", err)
	}
	ck := eng.CheckpointInfo()
	fmt.Printf("wal: checkpoints=%d size before last checkpoint=%dB after=%dB (device now %dB, was %dB)\n",
		ck.Count, ck.WALBytesBefore, ck.WALBytesAfter, eng.WALDeviceBytes(), walBefore)
}

func val(rr *db.RowRef) string {
	if rr == nil {
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
	out, err := json.MarshalIndent(rep, "", "  ")
	fmt.Println(string(out))
	return err
}
