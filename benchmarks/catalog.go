package main

// catalog.go names every workload and every metric once. BENCHMARK.json is
// generated from it (-spec), a metricSet takes its units from it, and the
// smoke test checks that the three agree.

import (
	"encoding/json"
	"strings"
)

const (
	runSeconds = 10 // BENCHMARK.json run_seconds; op counts are sized for it

	wIngest = "kv_ingest"
	wMixed  = "kv_mixed"
	wRead   = "kv_read"
	wHTAP   = "htap"
)

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{wIngest, "Durable 1 KiB SETs over TCP, then crash and WAL recovery: the write path does all the work (WAL, group commit, P_N insert, eviction, merge, checkpoint) and reads none; also the durability check."},
	{wMixed, "GET/SET/SCAN/2PC mix on zipfian keys: one index used both ways, so write cost bought with read cost nets out; only workload through the epoch barrier, 2PC, coordlog and cross-shard scan."},
	{wRead, "95% GET, 5% SCAN, working set 3x the pool, no writes: bypasses WAL, commit, eviction, merge, 2PC, so a write-path change predicts no change here; stresses server, wire, bloom, segments, buffer."},
	{wHTAP, "CH-benchmark on db.Table, SIAS heap and MV-PBT indexes, in process (paper Fig. 12a/b): OLTP rate and analytical query time under an old snapshot; bypasses server, shard and wal."},
}

// metricDef describes one metric. Bound is set for end-to-end metrics only.
// On lists the workloads a per-layer metric is measured on (empty = all
// three KV workloads and htap alike); elsewhere it reads 0. Moves names the
// end-to-end metrics the layer metric is expected to move.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	On     string
	Moves  string
	Doc    string
}

const (
	higher = "higher"
	lower  = "lower"

	onKV     = "kv_ingest kv_mixed kv_read"
	onWrites = "kv_ingest kv_mixed"
)

var endToEndDefs = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: higher, Bound: 0.25,
		Doc: "completed ops / composite time (estimated wall + max per-shard virtual device time); htap: committed OLTP tx / (OLTP wall + virtual)"},
	{Name: "sim_io_us_per_op", Unit: "us", Better: lower, Bound: 0.05,
		Doc: "virtual device time summed over shards / ops, measured phase"},
	{Name: "write_amp", Unit: "ratio", Better: lower, Bound: 0.03,
		Doc: "device bytes written / user bytes written since the store was created (KV: acked key+value bytes incl. preload; htap: bytes of the SIAS base-table files)"},
	{Name: "space_amp", Unit: "ratio", Better: lower, Bound: 0.05,
		Doc: "mean live device bytes (sampled every 100 ops) / live user bytes at the end; htap: / bytes of the SIAS base-table files"},
	{Name: "scan_io_us", Unit: "us", Better: lower, Bound: 0.10,
		Doc: "virtual device time of one range read by one client, mean: KV: per SCAN(50) over the three passes of the final key-space check (kv_ingest: after recovery); htap: per analytical query under the old snapshot"},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: lower, Bound: 0.08,
		Doc: "runtime.MemStats.TotalAlloc delta / ops over the measured phase (client and server share the process)"},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25,
		Doc: "median composite time (wall + max per-shard virtual) of building the system up to the first measured op: engines, listen, dial, preload, warm-up; repeated in every run"},
}

var perLayerDefs = []metricDef{
	// (a) Boundary counters over the untraced measured phase.
	{Name: "server.sessions_admitted", Unit: "count", Better: lower, On: onKV, Moves: "-", Doc: "sessions admitted since the server started"},
	{Name: "server.sessions_rejected", Unit: "count", Better: lower, On: onKV, Moves: "failed", Doc: "sessions refused by admission control"},
	{Name: "shard.twopc_groups", Unit: "count", Better: lower, Moves: "ops_per_s kv_mixed", Doc: "2PC commit decisions logged by the coordinator"},
	{Name: "shard.twopc_prepares", Unit: "count", Better: lower, Moves: "ops_per_s kv_mixed", Doc: "durable prepare votes"},
	{Name: "shard.indoubt_end", Unit: "count", Better: lower, Moves: "failed", Doc: "transactions still in doubt at the end (must be 0)"},
	{Name: "shard.restarts", Unit: "count", Better: lower, Moves: "failed", Doc: "supervisor restarts during the measured phase (must be 0)"},
	{Name: "shard.recover_s", Unit: "s", Better: lower, On: wIngest, Moves: "-", Doc: "sum over shards of wall + virtual time from FailShard to Healthy (end-to-end in the issue; exists on one workload only)"},
	{Name: "db.commits", Unit: "count", Better: lower, Moves: "-", Doc: "durable commits that appended a commit record"},
	{Name: "db.readonly_commits", Unit: "count", Better: lower, Moves: "-", Doc: "commits elided because the transaction never logged"},
	{Name: "db.commits_per_flush", Unit: "ratio", Better: higher, Moves: "runtime.wall_ops_per_s sim_io_us_per_op kv_ingest", Doc: "commits acknowledged by the group-commit batcher / its flushes: the batching factor"},
	{Name: "db.checkpoints", Unit: "count", Better: lower, Moves: "space_amp write_amp kv_ingest", Doc: "completed checkpoints"},
	{Name: "db.reclaims", Unit: "count", Better: lower, Moves: "runtime.wall_ops_per_s", Doc: "urgent space reclamation passes"},
	{Name: "db.readonly_entries", Unit: "count", Better: lower, Moves: "failed", Doc: "times an engine degraded to read-only (must be 0)"},
	{Name: "wal.flushes_per_commit", Unit: "ratio", Better: lower, Moves: "sim_io_us_per_op kv_ingest", Doc: "the inverse: batcher flushes / commits it acknowledged"},
	{Name: "mvpbt.evictions", Unit: "count", Better: lower, Moves: "write_amp runtime.wall_ops_per_s", Doc: "P_N evictions"},
	{Name: "mvpbt.merges", Unit: "count", Better: lower, Moves: "write_amp sim_io_us_per_op ops_per_s kv_ingest", Doc: "partition merges"},
	{Name: "mvpbt.gc_marked", Unit: "count", Better: higher, Moves: "scan_io_us htap", Doc: "records flagged by scans (GC phase 1)"},
	{Name: "mvpbt.gc_swept_pn", Unit: "count", Better: higher, Moves: "scan_io_us htap", Doc: "records swept from P_N (GC phase 2)"},
	{Name: "mvpbt.gc_evict_records", Unit: "count", Better: higher, Moves: "write_amp space_amp", Doc: "records dropped at eviction or merge (GC phase 3)"},
	{Name: "mvpbt.partitions_end", Unit: "count", Better: lower, Moves: "scan_io_us sim_io_us_per_op kv_read", Doc: "persisted partitions at the end, summed over trees"},
	{Name: "mvpbt.bloom_skip_share", Unit: "share", Better: higher, Moves: "sim_io_us_per_op kv_read", Doc: "partition probes answered no by the bloom filter / all probes"},
	{Name: "mvpbt.bloom_fp_share", Unit: "share", Better: lower, Moves: "sim_io_us_per_op kv_read", Doc: "filter said yes but the partition had no match / filter said yes"},
	{Name: "part.stalls", Unit: "count", Better: lower, Moves: "runtime.wall_ops_per_s", Doc: "partition-buffer write stalls"},
	{Name: "part.stall_ms", Unit: "ms", Better: lower, Moves: "runtime.wall_ops_per_s", Doc: "time writers spent stalled"},
	{Name: "part.no_victims", Unit: "count", Better: lower, Moves: "failed", Doc: "evictions that found nothing to evict"},
	{Name: "part.evict_errors", Unit: "count", Better: lower, Moves: "failed", Doc: "failed evictions"},
	{Name: "buffer.requests_per_op", Unit: "ratio", Better: lower, Moves: "runtime.wall_ops_per_s", Doc: "page requests through the pool / ops"},
	{Name: "buffer.index_hit_rate", Unit: "share", Better: higher, Moves: "sim_io_us_per_op ops_per_s kv_read", Doc: "index-class page requests served without device I/O"},
	{Name: "buffer.table_hit_rate", Unit: "share", Better: higher, Moves: "ops_per_s scan_io_us htap", Doc: "table-class page requests served without device I/O"},
	{Name: "buffer.evictions_per_op", Unit: "ratio", Better: lower, Moves: "sim_io_us_per_op", Doc: "dirty pages written back by replacement / ops"},
	{Name: "buffer.io_retries", Unit: "count", Better: lower, Moves: "failed", Doc: "in-line I/O retries (must be 0: no faults are injected)"},
	{Name: "sfile.live_mb_end", Unit: "MiB", Better: lower, Moves: "space_amp", Doc: "allocated device space at the end"},
	{Name: "sfile.peak_live_mb", Unit: "MiB", Better: lower, On: onKV, Moves: "space_amp", Doc: "highest live device space seen, sampled every 100 ops of one client (what a capacity budget must cover; a coincidence of merges and checkpoints, so it does not repeat well)"},
	{Name: "sfile.highwater_mb", Unit: "MiB", Better: lower, Moves: "space_amp", Doc: "peak allocation frontier"},
	{Name: "ssd.reads_per_op", Unit: "ratio", Better: lower, Moves: "sim_io_us_per_op ops_per_s kv_read", Doc: "device reads / ops"},
	{Name: "ssd.writes_per_op", Unit: "ratio", Better: lower, Moves: "sim_io_us_per_op write_amp", Doc: "device writes / ops"},
	{Name: "ssd.read_kb_per_op", Unit: "KiB", Better: lower, Moves: "sim_io_us_per_op", Doc: "device KiB read / ops"},
	{Name: "ssd.write_kb_per_op", Unit: "KiB", Better: lower, Moves: "write_amp", Doc: "device KiB written / ops"},
	{Name: "ssd.seq_write_share", Unit: "share", Better: higher, Moves: "sim_io_us_per_op", Doc: "writes classified sequential / writes"},
	{Name: "ssd.read_virtual_us_per_op", Unit: "us", Better: lower, Moves: "sim_io_us_per_op", Doc: "virtual read time / ops"},
	{Name: "ssd.write_virtual_us_per_op", Unit: "us", Better: lower, Moves: "sim_io_us_per_op", Doc: "virtual write time / ops"},
	{Name: "txn.aborts", Unit: "count", Better: lower, Moves: "ops_per_s htap", Doc: "TPC-C rollbacks (spec-mandated 1% of new-orders plus write conflicts)"},
	{Name: "runtime.wall_ops_per_s", Unit: "1/s", Better: higher, Moves: "ops_per_s", Doc: "ops / wall time, estimated from the faster half of 16 equal-count windows per client (htap: from the median over its databases of each of 8 windows); end-to-end in the issue, but wall time on this box drifts by more than any bound allows"},
	{Name: "runtime.allocs_per_op", Unit: "ratio", Better: lower, Moves: "alloc_kb_per_op runtime.wall_ops_per_s", Doc: "heap objects allocated / ops"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: lower, Moves: "runtime.wall_ops_per_s", Doc: "Go GC cycles during the measured phase"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: lower, Moves: "runtime.wall_ops_per_s", Doc: "Go GC stop-the-world pause total"},
	{Name: "shardclient.stall_time_share", Unit: "share", Better: lower, On: onKV, Moves: "runtime.wall_ops_per_s", Doc: "sum of latencies above 1 ms / sum of all latencies: foreground time lost to inline background work (end-to-end in the issue; scheduler noise only on kv_read)"},
	{Name: "shardclient.sweep_scan_ms", Unit: "ms", Better: lower, On: onKV, Moves: "-", Doc: "composite time of one SCAN(50) by one client, median over the fastest of three passes of the final key-space check"},
	{Name: "shardclient.get_p50_us", Unit: "us", Better: lower, On: "kv_mixed kv_read", Moves: "runtime.wall_ops_per_s", Doc: "GET wall latency, median"},
	{Name: "shardclient.get_p99_us", Unit: "us", Better: lower, On: "kv_mixed kv_read", Moves: "-", Doc: "GET wall latency, p99 (reported, not gated: tails are scheduler noise on this box)"},
	{Name: "shardclient.get_samples", Unit: "count", Better: higher, On: "kv_mixed kv_read", Moves: "-", Doc: "GETs timed"},
	{Name: "shardclient.set_p50_us", Unit: "us", Better: lower, On: onWrites, Moves: "runtime.wall_ops_per_s", Doc: "SET wall latency, median"},
	{Name: "shardclient.set_p99_us", Unit: "us", Better: lower, On: onWrites, Moves: "-", Doc: "SET wall latency, p99"},
	{Name: "shardclient.set_p999_us", Unit: "us", Better: lower, On: onWrites, Moves: "-", Doc: "SET wall latency, p99.9"},
	{Name: "shardclient.set_samples", Unit: "count", Better: higher, On: onWrites, Moves: "-", Doc: "SETs timed"},
	{Name: "shardclient.scan_p50_us", Unit: "us", Better: lower, On: "kv_mixed kv_read", Moves: "runtime.wall_ops_per_s", Doc: "SCAN(50) wall latency, median"},
	{Name: "shardclient.scan_p99_us", Unit: "us", Better: lower, On: "kv_mixed kv_read", Moves: "-", Doc: "SCAN(50) wall latency, p99"},
	{Name: "shardclient.scan_samples", Unit: "count", Better: higher, On: "kv_mixed kv_read", Moves: "-", Doc: "SCANs timed"},
	{Name: "shardclient.txn_p50_us", Unit: "us", Better: lower, On: wMixed, Moves: "ops_per_s kv_mixed", Doc: "BEGIN/SET/SET/COMMIT wall latency, median"},
	{Name: "shardclient.txn_p99_us", Unit: "us", Better: lower, On: wMixed, Moves: "-", Doc: "BEGIN/SET/SET/COMMIT wall latency, p99"},
	{Name: "shardclient.txn_samples", Unit: "count", Better: higher, On: wMixed, Moves: "-", Doc: "two-key transactions timed"},
	{Name: "db.oltp_tx_wall_us", Unit: "us", Better: lower, On: wHTAP, Moves: "runtime.wall_ops_per_s htap", Doc: "Bench.Tx wall time, median"},
	{Name: "db.olap_query_ms", Unit: "ms", Better: lower, On: wHTAP, Moves: "-", Doc: "composite time of the analytical query under the old snapshot: mean over a database's rounds of the median over databases (olap_query_ms in the issue)"},
	{Name: "db.olap_q1_ms", Unit: "ms", Better: lower, On: wHTAP, Moves: "scan_io_us htap", Doc: "Q1 order-line aggregate, median composite time"},
	{Name: "db.olap_q6_ms", Unit: "ms", Better: lower, On: wHTAP, Moves: "scan_io_us htap", Doc: "Q6 revenue filter, median composite time"},
	{Name: "db.olap_stock_ms", Unit: "ms", Better: lower, On: wHTAP, Moves: "scan_io_us htap", Doc: "stock-below-threshold scan, median composite time"},
	{Name: "db.olap_customer_ms", Unit: "ms", Better: lower, On: wHTAP, Moves: "scan_io_us htap", Doc: "customer balance aggregate, median composite time"},

	// (b) Ladder self times, from the traced replay.
	{Name: "server.self_us_per_op", Unit: "us", Better: lower, On: onKV, Moves: "runtime.wall_ops_per_s ops_per_s kv_read", Doc: "client rung - router rung, over the ops that stalled at no rung: loopback TCP, wire, server session and dispatch, shardclient"},
	{Name: "shard.self_us_per_op", Unit: "us", Better: lower, On: onKV, Moves: "ops_per_s kv_mixed", Doc: "router rung - engine rung, same ops: gates, supervisor observe, snapshot barrier, 2PC and coordlog"},
	{Name: "wal.self_us_per_op", Unit: "us", Better: lower, On: onKV, Moves: "runtime.wall_ops_per_s kv_ingest", Doc: "engine rung - engine_nowal rung, same ops: durable commit, group-commit wait, WAL append and flush"},
	{Name: "mvpbt.self_us_per_op", Unit: "us", Better: lower, On: onKV, Moves: "runtime.wall_ops_per_s", Doc: "engine_nowal rung, every op: db.MVPBTKV, txn, mvpbt, part, skiplist, buffer, sfile CPU, inline evictions and merges included"},
	{Name: "trace.stalled_diff_us_per_op", Unit: "us", Better: lower, On: onKV, Moves: "-", Doc: "client rung - engine_nowal rung on the ops that took over 1 ms at some rung: inline checkpoints and interference, which the ladder cannot attribute"},
	{Name: "trace.client_us_per_op", Unit: "us", Better: lower, On: onKV, Moves: "-", Doc: "mean client-rung span: the four self times and the stalled difference sum to it"},
	{Name: "trace.stalled_op_share", Unit: "share", Better: lower, On: onKV, Moves: "-", Doc: "ops that took over 1 ms at some rung / ops replayed"},
	{Name: "wal.virtual_us_per_op", Unit: "us", Better: lower, On: onKV, Moves: "sim_io_us_per_op kv_ingest", Doc: "virtual device time per op, engine rung - engine_nowal rung"},
	{Name: "mvpbt.virtual_us_per_op", Unit: "us", Better: lower, On: onKV, Moves: "sim_io_us_per_op", Doc: "virtual device time per op, engine_nowal rung"},
	{Name: "wal.dev_bytes_per_user_byte", Unit: "ratio", Better: lower, On: onWrites, Moves: "write_amp", Doc: "device bytes written per user byte, engine rung - engine_nowal rung"},
	{Name: "mvpbt.dev_bytes_per_user_byte", Unit: "ratio", Better: lower, On: onWrites, Moves: "write_amp", Doc: "device bytes written per user byte, engine_nowal rung"},
	{Name: "trace.engine_write_amp", Unit: "ratio", Better: lower, On: onWrites, Moves: "-", Doc: "write amplification of the engine rung: the two ledger entries sum to it"},
	{Name: "trace.overhead_share", Unit: "share", Better: lower, On: wRead, Moves: "-", Doc: "(client rung wall time with span recording - without) / without, both by the fast-half estimator"},

	// (c) Leaf probes: one public function each, single goroutine.
	{Name: "wire.frame_ns", Unit: "ns", Better: lower, On: wIngest, Moves: "runtime.wall_ops_per_s kv_read", Doc: "WriteFrame + ReadFrame of one SET frame in memory"},
	{Name: "wire.frame_allocs", Unit: "count", Better: lower, On: wIngest, Moves: "alloc_kb_per_op", Doc: "heap objects per frame round trip"},
	{Name: "wal.append_ns", Unit: "ns", Better: lower, On: wIngest, Moves: "runtime.wall_ops_per_s kv_ingest", Doc: "Writer.Append of one KV insert record"},
	{Name: "wal.flush_us", Unit: "us", Better: lower, On: wIngest, Moves: "runtime.wall_ops_per_s kv_ingest", Doc: "commit record Append + Writer.Flush, wall"},
	{Name: "wal.flush_virtual_us", Unit: "us", Better: lower, On: wIngest, Moves: "sim_io_us_per_op kv_ingest", Doc: "virtual device time per flush"},
	{Name: "wal.bytes_per_record", Unit: "count", Better: lower, On: wIngest, Moves: "write_amp", Doc: "logical log bytes per autocommit SET"},
	{Name: "txn.begin_commit_ns", Unit: "ns", Better: lower, On: wIngest, Moves: "runtime.wall_ops_per_s", Doc: "Manager.Begin + Commit of an empty transaction"},
	{Name: "skiplist.set_ns", Unit: "ns", Better: lower, On: wIngest, Moves: "runtime.wall_ops_per_s kv_ingest", Doc: "List.Set into a P_N-sized list"},
	{Name: "skiplist.seek_ns", Unit: "ns", Better: lower, On: wIngest, Moves: "runtime.wall_ops_per_s", Doc: "List.Seek"},
	{Name: "bloom.add_ns", Unit: "ns", Better: lower, On: wIngest, Moves: "runtime.wall_ops_per_s kv_ingest", Doc: "Filter.Add"},
	{Name: "bloom.maycontain_ns", Unit: "ns", Better: lower, On: wIngest, Moves: "runtime.wall_ops_per_s kv_read", Doc: "Filter.MayContain"},
	{Name: "mvpbt.insert_ns", Unit: "ns", Better: lower, On: wIngest, Moves: "runtime.wall_ops_per_s kv_ingest", Doc: "Tree.InsertRegularVal of a 1 KiB value into P_N, with txn Begin/Commit"},
	{Name: "mvpbt.lookup_pn_ns", Unit: "ns", Better: lower, On: wIngest, Moves: "runtime.wall_ops_per_s", Doc: "Tree.Lookup answered by P_N"},
	{Name: "mvpbt.lookup_part_us", Unit: "us", Better: lower, On: wIngest, Moves: "runtime.wall_ops_per_s sim_io_us_per_op kv_read", Doc: "Tree.Lookup answered by one of ten partitions"},
	{Name: "mvpbt.evict_ms", Unit: "ms", Better: lower, On: wIngest, Moves: "runtime.wall_ops_per_s kv_ingest", Doc: "Tree.EvictPN of a full 256 KiB P_N, wall"},
	{Name: "mvpbt.evict_virtual_ms", Unit: "ms", Better: lower, On: wIngest, Moves: "sim_io_us_per_op kv_ingest", Doc: "same, virtual device time"},
	{Name: "mvpbt.evict_allocs", Unit: "count", Better: lower, On: wIngest, Moves: "alloc_kb_per_op kv_ingest", Doc: "same, heap objects"},
	{Name: "mvpbt.evict_alloc_kb", Unit: "KiB", Better: lower, On: wIngest, Moves: "alloc_kb_per_op kv_ingest", Doc: "same, heap KiB"},
	{Name: "mvpbt.evict_dev_writes", Unit: "count", Better: lower, On: wIngest, Moves: "sim_io_us_per_op kv_ingest", Doc: "same, device writes"},
	{Name: "mvpbt.evict_seq_write_share", Unit: "share", Better: higher, On: wIngest, Moves: "sim_io_us_per_op", Doc: "same, share of writes that continue the run (paper Fig. 12c: 1.0)"},
	{Name: "mvpbt.merge_ms", Unit: "ms", Better: lower, On: wIngest, Moves: "runtime.wall_ops_per_s kv_ingest", Doc: "Tree.MergePartitions of ten such partitions, wall"},
	{Name: "mvpbt.merge_virtual_ms", Unit: "ms", Better: lower, On: wIngest, Moves: "sim_io_us_per_op kv_ingest", Doc: "same, virtual device time"},
	{Name: "mvpbt.merge_alloc_kb", Unit: "KiB", Better: lower, On: wIngest, Moves: "alloc_kb_per_op kv_ingest", Doc: "same, heap KiB"},
	{Name: "mvpbt.merge_dev_reads", Unit: "count", Better: lower, On: wIngest, Moves: "sim_io_us_per_op kv_ingest", Doc: "same, device reads"},
	{Name: "mvpbt.merge_dev_writes", Unit: "count", Better: lower, On: wIngest, Moves: "write_amp kv_ingest", Doc: "same, device writes"},
	{Name: "part.build_ms", Unit: "ms", Better: lower, On: wIngest, Moves: "runtime.wall_ops_per_s kv_ingest", Doc: "part.Build of one P_N of sorted records"},
	{Name: "part.seek_us", Unit: "us", Better: lower, On: wIngest, Moves: "runtime.wall_ops_per_s kv_read", Doc: "Segment.Seek to a present key"},
	{Name: "buffer.get_hit_ns", Unit: "ns", Better: lower, On: wIngest, Moves: "runtime.wall_ops_per_s", Doc: "Pool.Get + Unpin of a cached page"},
	{Name: "buffer.get_miss_us", Unit: "us", Better: lower, On: wIngest, Moves: "runtime.wall_ops_per_s kv_read", Doc: "Pool.Get + Unpin of an uncached page (read, checksum, replace)"},
	{Name: "sfile.write_page_ns", Unit: "ns", Better: lower, On: wIngest, Moves: "runtime.wall_ops_per_s", Doc: "File.WritePage, wall"},
	{Name: "ssd.write8k_ns", Unit: "ns", Better: lower, On: wIngest, Moves: "runtime.wall_ops_per_s", Doc: "Device.WriteAt of 8 KiB: the simulator's own CPU cost"},
	{Name: "ssd.read8k_ns", Unit: "ns", Better: lower, On: wIngest, Moves: "runtime.wall_ops_per_s", Doc: "Device.ReadAt of 8 KiB: the simulator's own CPU cost"},
	{Name: "heap.sias_insert_ns", Unit: "ns", Better: lower, On: wHTAP, Moves: "ops_per_s htap", Doc: "SiasHeap.Insert of a 96-byte row"},
	{Name: "heap.sias_read_visible_ns", Unit: "ns", Better: lower, On: wHTAP, Moves: "ops_per_s scan_io_us htap", Doc: "SiasHeap.ReadVisible of a one-version chain"},

	// Open-loop probe: reported every run, gated never.
	{Name: "shardclient.open_p50_us", Unit: "us", Better: lower, On: wMixed, Moves: "-", Doc: "open loop at a fixed rate: latency from the due time, median"},
	{Name: "shardclient.open_p99_us", Unit: "us", Better: lower, On: wMixed, Moves: "-", Doc: "same, p99"},
	{Name: "shardclient.open_slow_share", Unit: "share", Better: lower, On: wMixed, Moves: "-", Doc: "requests slower than 5 ms from their due time"},
	{Name: "shardclient.open_late_share", Unit: "share", Better: lower, On: wMixed, Moves: "-", Doc: "requests sent more than 100 us after they were due"},
}

// on reports whether d is measured on workload w.
func (d metricDef) on(w string) bool {
	if d.On == "" {
		return true
	}
	for _, n := range strings.Fields(d.On) {
		if n == w {
			return true
		}
	}
	return false
}

func defByName(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// benchmarkSpec renders the catalogue in the BENCHMARK.json form.
func benchmarkSpec() ([]byte, error) {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{
		Command:    []string{"sh", "benchmarks/run.sh"},
		Paths:      []string{"benchmarks"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
	}
	for _, d := range endToEndDefs {
		spec.EndToEnd = append(spec.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayerDefs {
		spec.PerLayer = append(spec.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
