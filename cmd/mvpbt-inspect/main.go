// Command mvpbt-inspect runs a small workload against an MV-PBT and dumps
// the resulting structure: partition metadata, filter statistics, the
// index records of selected keys (matter/anti-matter, timestamps), and
// device counters. A teaching and debugging tool.
package main

import (
	"flag"
	"fmt"
	"math"
	"strings"
	"time"

	"mvpbt/internal/db"
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
		shards   = flag.Int("shards", 0, "inspect a sharded deployment with this many engines instead of one engine")
	)
	flag.Parse()

	if *shards > 0 {
		inspectShards(*shards, *tuples, *updates, *pbuf, *capacity)
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

// inspectShards runs a small workload through a shard.Router and prints
// per-shard statistics side by side: key distribution, space governance,
// and the commit pipeline, one column per shard.
func inspectShards(n, tuples, updates, pbuf int, capacity int64) {
	r, err := shard.New(shard.Config{
		Shards: n,
		Engine: db.Config{
			BufferPages:          1024,
			PartitionBufferBytes: pbuf,
			EnableWAL:            true,
			DeviceCapacityBytes:  capacity,
		},
		Supervise: true,
	})
	if err != nil {
		panic(err)
	}
	defer r.Close()

	for round := 0; round <= updates; round++ {
		for i := 0; i < tuples; i++ {
			k := []byte(fmt.Sprintf("key-%05d", i))
			if err := r.Put(k, []byte(fmt.Sprintf("v%d", round))); err != nil {
				panic(err)
			}
		}
	}
	// A tenth of the keyspace deleted, to exercise anti-matter routing.
	for i := 0; i < tuples; i += 10 {
		if err := r.Delete([]byte(fmt.Sprintf("key-%05d", i))); err != nil {
			panic(err)
		}
	}
	// A few cross-shard transactions, so the commit-protocol section below
	// has two-phase commit traffic to show.
	for g := 0; g < 8; g++ {
		gtx, err := r.Begin()
		if err != nil {
			panic(err)
		}
		for i := 0; i < 4; i++ {
			k := []byte(fmt.Sprintf("key-%05d", (g*37+i*11)%tuples))
			if err := gtx.Put(k, []byte(fmt.Sprintf("g%d", g))); err != nil {
				panic(err)
			}
		}
		if err := gtx.Commit(); err != nil {
			panic(err)
		}
	}

	// Per-shard live key counts via one consistent cross-shard snapshot.
	keys := make([]int, n)
	tx, err := r.Begin()
	if err != nil {
		panic(err)
	}
	if err := tx.Scan(nil, math.MaxInt32, func(k, v []byte) bool {
		keys[r.ShardOf(k)]++
		return true
	}); err != nil {
		panic(err)
	}
	tx.Commit()

	stats := r.Stats()
	fmt.Printf("== per-shard stats: %d shards, %d keys x %d rounds (hash-partitioned) ==\n",
		n, tuples, updates+1)
	row := func(label string, cell func(i int) string) {
		fmt.Printf("%-18s", label)
		for i := range stats {
			fmt.Printf("  %-14s", cell(i))
		}
		fmt.Println()
	}
	row("", func(i int) string { return stats[i].Dir })
	row("live keys", func(i int) string { return fmt.Sprintf("%d", keys[i]) })
	row("capacity", func(i int) string { return fmt.Sprintf("%d", stats[i].Space.Capacity) })
	row("live bytes", func(i int) string { return fmt.Sprintf("%d", stats[i].Space.Live) })
	row("high water", func(i int) string { return fmt.Sprintf("%d", stats[i].Space.HighWater) })
	row("soft/hard", func(i int) string {
		return fmt.Sprintf("%d/%d", stats[i].Space.Soft, stats[i].Space.Hard)
	})
	row("read-only", func(i int) string { return fmt.Sprintf("%v", stats[i].Space.ReadOnly) })
	row("reclaims", func(i int) string { return fmt.Sprintf("%d", stats[i].Space.Reclaims) })
	row("wal flushes", func(i int) string { return fmt.Sprintf("%d", stats[i].WAL.Flushes) })
	row("wal commits", func(i int) string { return fmt.Sprintf("%d", stats[i].WAL.Commits) })
	row("flushes/commit", func(i int) string { return fmt.Sprintf("%.2f", stats[i].WAL.FlushesPerCommit()) })
	row("devB/logB ckpt-err", func(i int) string {
		return fmt.Sprintf("%.2f %d", stats[i].WAL.DeviceBytesPerLogByte(), stats[i].Checkpoint.Errors)
	})
	row("group batches", func(i int) string { return fmt.Sprintf("%d", stats[i].WAL.Group.Batches) })
	row("health", func(i int) string { return stats[i].Health.State.String() })
	row("restarts", func(i int) string { return fmt.Sprintf("%d", stats[i].Health.Restarts) })
	row("breaker", func(i int) string {
		if stats[i].Health.BreakerOpen {
			return fmt.Sprintf("open (%d fails)", stats[i].Health.RestartFailures)
		}
		return "closed"
	})

	// Commit protocol: the participant side per shard (prepare votes,
	// resolutions, anything still in doubt) and the coordinator log.
	twopc := make([]db.TwoPCStats, n)
	for i := 0; i < n; i++ {
		twopc[i] = r.Shard(i).Engine.TwoPCInfo()
	}
	fmt.Println("\n== commit protocol (two-phase, presumed abort) ==")
	row("2pc prepares", func(i int) string { return fmt.Sprintf("%d", twopc[i].Prepares) })
	row("2pc commits", func(i int) string { return fmt.Sprintf("%d", twopc[i].ResolvedCommits) })
	row("2pc aborts", func(i int) string { return fmt.Sprintf("%d", twopc[i].ResolvedAborts) })
	row("in doubt", func(i int) string { return fmt.Sprintf("%d", twopc[i].InDoubt) })
	row("oldest prepared", func(i int) string {
		if twopc[i].InDoubt == 0 {
			return "-"
		}
		return twopc[i].OldestAge.Round(time.Millisecond).String()
	})
	info := r.TwoPCInfo()
	fmt.Printf("coordinator: %d groups decided, %d retired, %d live decisions, %d inflight, "+
		"log %d bytes, %d checkpoints, incarnation %d\n",
		info.Coordinator.Decides, info.Coordinator.Forgets, info.Coordinator.LiveDecisions,
		info.Coordinator.Inflight, info.Coordinator.LogBytes, info.Coordinator.Checkpoints,
		info.Coordinator.Incarnation)

	fmt.Println("\n== per-shard devices ==")
	for _, st := range stats {
		fmt.Printf("%s: %s\n", st.Dir, strings.TrimSpace(st.Device))
	}
	if d := r.Degraded(); len(d) > 0 {
		fmt.Printf("\ndegraded shards: %v\n", d)
	}
}
