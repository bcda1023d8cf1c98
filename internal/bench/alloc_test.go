package bench

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"mvpbt/internal/buffer"
	"mvpbt/internal/db"
	"mvpbt/internal/index"
	"mvpbt/internal/index/part"
	"mvpbt/internal/server"
	"mvpbt/internal/server/shardclient"
	"mvpbt/internal/sfile"
	"mvpbt/internal/shard"
	"mvpbt/internal/simclock"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
)

// Write-hot-path allocation tracking. The benchmarks report allocs/op for
// the paths the commit pipeline optimised (run with -benchmem); the gate
// test pins the steady-state counts so a regression fails `go test`. The
// historical baselines and the current counts are recorded in
// EXPERIMENTS.md ("commit" experiment).

func newAllocKV(b *testing.B, wal bool) (*db.Engine, *db.MVPBTKV) {
	b.Helper()
	e := db.NewEngine(db.Config{EnableWAL: wal})
	kv, err := db.NewMVPBTKV(e, "alloc", db.MVPBTKVOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4096; i++ {
		if err := kv.Put([]byte(fmt.Sprintf("user%08d", i)), []byte("value-payload-0123456789")); err != nil {
			b.Fatal(err)
		}
	}
	return e, kv
}

func BenchmarkAllocBeginCommit(b *testing.B) {
	e := db.NewEngine(db.Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := e.Begin()
		e.Commit(tx)
	}
}

func BenchmarkAllocKVGet(b *testing.B) {
	_, kv := newAllocKV(b, false)
	key := []byte("user00000042")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := kv.Get(key); err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}

func BenchmarkAllocKVPut(b *testing.B) {
	_, kv := newAllocKV(b, false)
	key := []byte("user00000042")
	val := []byte("value-payload-0123456789")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := kv.Put(key, val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocKVPutWAL is the KV put on an engine with a log, where the
// store is durable: begin, row and commit records through the Writer's
// reused encode scratch plus a flush through its reused page/stream
// buffers. Logging must add no allocation to BenchmarkAllocKVPut.
func BenchmarkAllocKVPutWAL(b *testing.B) {
	_, kv := newAllocKV(b, true)
	key := []byte("user00000042")
	val := []byte("value-payload-0123456789")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := kv.Put(key, val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocTableCommitWAL is the full logged write path: table insert
// (begin record + row record through the reused encode scratch) plus a
// durable commit (commit record + flush through the reused page/stream
// buffers).
func BenchmarkAllocTableCommitWAL(b *testing.B) {
	e, tbl := newAllocTable(b, db.Config{EnableWAL: true}, db.IdxMVPBT, 0)
	row := make([]byte, commitRowLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(row, uint64(i)+1)
		tx := e.Begin()
		if _, _, err := tbl.Insert(tx, row); err != nil {
			b.Fatal(err)
		}
		if err := e.CommitDurable(tx); err != nil {
			b.Fatal(err)
		}
	}
}

// newAllocTable is a SIAS table with one unique index of kind, with MV-PBT
// the shape of every htap table, holding rows allocRow(0) … allocRow(rows-1).
func newAllocTable(tb testing.TB, cfg db.Config, kind db.IndexKind, rows int) (*db.Engine, *db.Table) {
	tb.Helper()
	e := db.NewEngine(cfg)
	tbl, err := e.NewTable("alloc", db.HeapSIAS, db.IndexDef{
		Name: "pk", Kind: kind, Unique: true, BloomBits: 10, PrefixLen: 8,
		Extract: func(row []byte) []byte { return row[:commitKeyLen] },
	})
	if err != nil {
		tb.Fatal(err)
	}
	row := make([]byte, commitRowLen)
	for i := 0; i < rows; i++ {
		tx := e.Begin()
		if _, _, err := tbl.Insert(tx, allocRow(row, i)); err != nil {
			tb.Fatal(err)
		}
		e.Commit(tx)
	}
	return e, tbl
}

// allocRow writes row i into row: its key, then a payload.
func allocRow(row []byte, i int) []byte {
	binary.BigEndian.PutUint64(row, uint64(i))
	binary.BigEndian.PutUint64(row[8:], uint64(i))
	for j := commitKeyLen; j < len(row); j++ {
		row[j] = byte('a' + j%26)
	}
	return row
}

// The table path's gate and benchmarks preload allocTableRows rows through a
// partition buffer small enough that P_N is evicted many times over.
const allocTableRows = 20000

var allocTableConfig = db.Config{PartitionBufferBytes: 256 << 10}

// BenchmarkAllocTableLookup is Table.LookupOne of one row with its payload:
// the row copy it returns is its one allocation.
func BenchmarkAllocTableLookup(b *testing.B) {
	e, tbl := newAllocTable(b, allocTableConfig, db.IdxMVPBT, allocTableRows)
	ix, key := tbl.Indexes()[0], make([]byte, commitRowLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := e.Begin()
		if _, ok, err := tbl.LookupOne(tx, ix, allocRow(key, i*7919%allocTableRows)[:commitKeyLen], true); err != nil || !ok {
			b.Fatal(ok, err)
		}
		e.Commit(tx)
	}
}

// BenchmarkAllocTableUpdate is Table.Update of one row in its own
// transaction: the replacement record, its key copy and its skiplist node in
// P_N (the heap encodes the version into a buffer it keeps).
func BenchmarkAllocTableUpdate(b *testing.B) {
	e, tbl := newAllocTable(b, allocTableConfig, db.IdxMVPBT, allocTableRows)
	cur := allocUpdateTarget(b, e, tbl)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		allocUpdate(b, e, tbl, &cur, 1)
	}
}

// BenchmarkAllocTableScan is a 10-row Table.Scan with payloads: the ten row
// copies it hands out.
func BenchmarkAllocTableScan(b *testing.B) {
	e, tbl := newAllocTable(b, allocTableConfig, db.IdxMVPBT, allocTableRows)
	lo := make([]byte, commitRowLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := allocScan(b, e, tbl, allocRow(lo, i*7919%(allocTableRows-10))[:commitKeyLen], true); n != 10 {
			b.Fatal(n)
		}
	}
}

// allocUpdateTarget returns row 42 as a LookupOne reads it, its Row a buffer
// the updates reuse.
func allocUpdateTarget(tb testing.TB, e *db.Engine, tbl *db.Table) db.RowRef {
	tb.Helper()
	tx := e.Begin()
	defer e.Commit(tx)
	cur, ok, err := tbl.LookupOne(tx, tbl.Indexes()[0], allocRow(make([]byte, commitRowLen), 42)[:commitKeyLen], true)
	if err != nil || !ok {
		tb.Fatal(ok, err)
	}
	return cur
}

// allocUpdate rewrites cur's row in place n times in a transaction of its
// own and points cur at the version it wrote last. Each update past the
// first passes the RowRef the transaction read, so the heap walks the chain
// down from the transaction's own newer version (first-updater-wins).
func allocUpdate(tb testing.TB, e *db.Engine, tbl *db.Table, cur *db.RowRef, n int) {
	tx := e.Begin()
	var rid storage.RecordID
	for i := 0; i < n; i++ {
		var err error
		if rid, err = tbl.Update(tx, *cur, cur.Row); err != nil {
			tb.Fatal(err)
		}
	}
	e.Commit(tx)
	cur.RID = rid
}

// allocScan counts the rows of a Scan from lo that stops after ten.
func allocScan(tb testing.TB, e *db.Engine, tbl *db.Table, lo []byte, withRows bool) int {
	tx := e.Begin()
	defer e.Commit(tx)
	n := 0
	if err := tbl.Scan(tx, tbl.Indexes()[0], lo, nil, withRows, func(db.RowRef) bool { n++; return n < 10 }); err != nil {
		tb.Fatal(err)
	}
	return n
}

// TestHotPathAllocGate pins steady-state allocs/op for the write hot path
// and the read path under it, in process and served. The limits carry a
// little slack over the measured values (0 / 1 / 0 / 0 / 0 in process; see
// EXPERIMENTS.md) so incidental work — a tall skiplist tower, a new slab
// chunk, an amortized partition-buffer eviction — does not flake the gate,
// while a genuine +1 allocation regression still trips it.
func TestHotPathAllocGate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurements under -short")
	}
	const runs = 2000

	e := db.NewEngine(db.Config{})
	got := testing.AllocsPerRun(runs, func() {
		tx := e.Begin()
		e.Commit(tx)
	})
	if got > 0.25 {
		t.Errorf("Begin+Commit: %.2f allocs/op, want 0", got)
	}

	_, kv := newAllocKVT(t, db.Config{})
	key := []byte("user00000042")
	val := []byte("value-payload-0123456789")
	got = testing.AllocsPerRun(runs, func() {
		if _, ok, err := kv.Get(key); err != nil || !ok {
			t.Fatal(ok, err)
		}
	})
	if got > 1.5 {
		t.Errorf("KV Get: %.2f allocs/op, want <=1 (the returned value copy)", got)
	}
	var dst []byte
	got = testing.AllocsPerRun(runs, func() {
		tx := e.Begin()
		v, ok, err := kv.AppendGetTx(tx, dst[:0], key)
		e.Commit(tx)
		if err != nil || !ok {
			t.Fatal(ok, err)
		}
		dst = v
	})
	if got > 0.25 {
		t.Errorf("KV AppendGetTx into a reused buffer: %.2f allocs/op, want 0 (the served GET's lookup)", got)
	}
	got = testing.AllocsPerRun(runs, func() {
		if err := kv.Put(key, val); err != nil {
			t.Fatal(err)
		}
	})
	if got > 0.5 {
		t.Errorf("KV Put: %.2f allocs/op, want 0 (version record, key+value copy and skiplist node are carved from P_N's slabs)", got)
	}

	_, kvw := newAllocKVT(t, db.Config{EnableWAL: true})
	got = testing.AllocsPerRun(runs, func() {
		if err := kvw.Put(key, val); err != nil {
			t.Fatal(err)
		}
	})
	if got > 0.5 {
		t.Errorf("KV Put with WAL: %.2f allocs/op, want 0 (logging and flushing the put must add nothing to the unlogged path)", got)
	}

	// Across evictions: a 32 KiB partition buffer evicts P_N every ~400
	// puts, and each eviction hands the evicted P_N's memory to the next
	// puts. Counted exactly, not in AllocsPerRun's whole allocations: the
	// eviction's own (segment, fences, filter) amortize to ~0.1 (5 of them).
	_, kve := newAllocKVT(t, db.Config{PartitionBufferBytes: 32 << 10})
	evictions := kve.Tree().Stats().Evictions
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		if err := kve.Put(key, val); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	got = float64(m1.Mallocs-m0.Mallocs) / runs
	if n := kve.Tree().Stats().Evictions - evictions; n < 3 || got > 0.5 {
		t.Errorf("KV Put across %d evictions: %.2f allocs/op, want <=0.5 across >=3 (the evicted P_N's nodes, records and bytes serve the next puts)", n, got)
	}

	t.Run("persisted", func(t *testing.T) { persistedReadAllocs(t, runs) })
	t.Run("table", func(t *testing.T) { tableAllocs(t, runs) })
	t.Run("btree-kv", func(t *testing.T) { btreeKVAllocs(t, runs) })
	t.Run("build", func(t *testing.T) { buildAllocs(t, runs/20) })
	t.Run("served", func(t *testing.T) { servedAllocs(t, runs) })
}

// tableAllocs gates the row operations of db.Table, the path htap runs, on a
// SIAS table with one unique MV-PBT index in steady state (P_N evicted many
// times over, partitions below it). An operation allocates what it hands
// out: a read its row copies. A write's P_N record, key copy and skiplist
// node are carved from P_N's slabs, which evictions recycle. The heap
// encodes versions into a buffer it keeps, segment builds recycle their
// leaf image and filter hashes, LookupOne returns its row by value and
// Update keeps its key pairs on the stack. Measured: Insert 0, LookupOne 1
// (0 without rows), 10-row Scan 10 (0), Update 0 (0 for two in one
// transaction; 3, 3 and 6 before P_N's slabs). The version-oblivious read of a B-Tree's or a PBT's
// table (Fig. 12a's and Fig. 14's other index kinds) verifies its candidates
// against the heap, which returns the visible version by value: LookupOne
// with its row 1 on either (8 and 4 before). A read past P_N draws its state
// from a sync.Pool, which -race empties at random, so the gate says nothing
// under -race.
func tableAllocs(t *testing.T, runs int) {
	if raceEnabled {
		t.Skip("the read path recycles its state through a sync.Pool, which -race drops at random")
	}
	e, tbl := newAllocTable(t, allocTableConfig, db.IdxMVPBT, allocTableRows)
	ix := tbl.Indexes()[0]
	if n := ix.MV().NumPartitions(); n < 2 {
		t.Fatalf("%d partitions under P_N, want several", n)
	}
	row, next := make([]byte, commitRowLen), allocTableRows
	gate := func(name string, limit float64, op func()) {
		if got := testing.AllocsPerRun(runs, op); got > limit+0.5 {
			t.Errorf("Table %s: %.2f allocs/op, want <=%.0f", name, got, limit)
		}
	}
	gate("Insert (P_N record, key copy and skiplist node from P_N's slabs)", 0, func() {
		tx := e.Begin()
		if _, _, err := tbl.Insert(tx, allocRow(row, next)); err != nil {
			t.Fatal(err)
		}
		e.Commit(tx)
		next++
	})
	for _, withRows := range []bool{true, false} {
		want := 0.0
		if withRows {
			want = 1 // the row copy
		}
		gate(fmt.Sprintf("LookupOne (rows %v)", withRows), want, func() {
			next += 7919
			tx := e.Begin()
			if _, ok, err := tbl.LookupOne(tx, ix, allocRow(row, next%allocTableRows)[:commitKeyLen], withRows); err != nil || !ok {
				t.Fatal(ok, err)
			}
			e.Commit(tx)
		})
		gate(fmt.Sprintf("10-row Scan (rows %v)", withRows), 10*want, func() {
			next += 7919
			if n := allocScan(t, e, tbl, allocRow(row, next%(allocTableRows-10))[:commitKeyLen], withRows); n != 10 {
				t.Fatal(n)
			}
		})
	}
	cur := allocUpdateTarget(t, e, tbl)
	gate("Update (P_N record, key copy and skiplist node from P_N's slabs)", 0, func() { allocUpdate(t, e, tbl, &cur, 1) })
	gate("Update twice in one transaction (the second reads only its chain hop's header)", 0, func() { allocUpdate(t, e, tbl, &cur, 2) })
	for _, kind := range []struct {
		name string
		kind db.IndexKind
	}{{"B-Tree", db.IdxBTree}, {"PBT", db.IdxPBT}} {
		e, tbl := newAllocTable(t, allocTableConfig, kind.kind, allocTableRows)
		ix := tbl.Indexes()[0]
		gate(fmt.Sprintf("LookupOne over a %s (rows true: the row copy)", kind.name), 1, func() {
			next += 7919
			tx := e.Begin()
			if _, ok, err := tbl.LookupOne(tx, ix, allocRow(row, next%allocTableRows)[:commitKeyLen], true); err != nil || !ok {
				t.Fatal(ok, err)
			}
			e.Commit(tx)
		})
	}
}

// buildAllocs gates a partition build, what each eviction and merge of a
// table's MV-PBT index runs: 2 000 records of the allocation table's shape,
// with its bloom and prefix filters, built and freed over and over. A build
// allocates the Builder, its last key and what its segment keeps: the
// Segment, two fence slices and two filters (one allocation for the bloom
// filter's struct, one for its bits, one more for the prefix filter's). Its
// leaf image, fences arena and 40 chunks of 512 hashes are recycled from
// build to build: fresh, they take 59 allocations more, 40 of them the
// chunks. The device recycles the blocks a freed segment released, though it
// stores nothing else (ssd.Device.Discard keeps an extent's worth of spare
// blocks). Measured: 10. A sync.Pool says nothing under -race.
func buildAllocs(t *testing.T, runs int) {
	if raceEnabled {
		t.Skip("the builder recycles its buffers through a sync.Pool, which -race drops at random")
	}
	fm := sfile.NewManager(ssd.New(simclock.New(), ssd.IntelP3600))
	pool, f := buffer.New(64), fm.Create("build", sfile.ClassIndex)
	kvs := make([]part.KV, 2000)
	for i := range kvs {
		row := allocRow(make([]byte, commitRowLen), i)
		kvs[i] = part.KV{Key: row[:commitKeyLen], Body: row[commitKeyLen:]}
	}
	got := testing.AllocsPerRun(runs, func() {
		seg, err := part.Build(pool, f, 1, kvs, 1, 1, part.BuildOptions{BloomBitsPerKey: 10, PrefixLen: 8})
		if err != nil {
			t.Fatal(err)
		}
		seg.Free()
	})
	if got > 10.5 {
		t.Errorf("partition build: %.2f allocs, want <=10 (the Builder, its last key and what the segment keeps)", got)
	}
}

// servedAllocs gates the served read path: a GET and a SCAN(50) round trip
// of 1 KiB values through an in-process server and a shardclient.Client over
// loopback TCP, counting the allocations of both ends. Each end reads frames
// into a buffer it keeps, the server builds its reply in the session's
// buffer and the client decodes SCAN pairs into a slice it keeps, so what is
// left does not grow with the bytes served. Measured: a GET allocates 1 (the
// transaction id segment wire.U32 encodes for the client's request), a
// SCAN(50) 4 (the client's two u32 segments; the server's shard.Tx and its
// per-shard legs, the snapshot the scan runs at).
func servedAllocs(t *testing.T, runs int) {
	if raceEnabled {
		t.Skip("the scan path recycles its state through a sync.Pool, which -race drops at random")
	}
	r, err := shard.New(shard.Config{Shards: 2, Engine: db.Config{BufferPages: 256}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	srv := server.New(r, server.Config{})
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop(context.Background())
	c, err := shardclient.Dial(addr.String(), "alloc")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	val := bytes.Repeat([]byte("v"), 1024)
	keys := make([][]byte, 512)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%08d", i))
		if err := c.Set(0, keys[i], val); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	get := testing.AllocsPerRun(runs, func() {
		next++
		if v, ok, err := c.Get(0, keys[next%len(keys)]); err != nil || !ok || len(v) != len(val) {
			t.Fatal(len(v), ok, err)
		}
	})
	scan := testing.AllocsPerRun(runs/10, func() {
		next++
		if kvs, err := c.Scan(0, keys[next%(len(keys)-50)], 50); err != nil || len(kvs) != 50 {
			t.Fatal(len(kvs), err)
		}
	})
	if get > 2.5 {
		t.Errorf("served GET round trip: %.2f allocs/op, want <=2 (measured 1)", get)
	}
	if scan > 4.5 {
		t.Errorf("served SCAN(50) round trip: %.2f allocs/op, want <=4 (measured 4)", scan)
	}
}

// TestSealWriteOutAllocGate: the pool's write-out of a full seal queue —
// sfile.ExtentPages pages of four tables sorted and written back — allocates
// nothing, so base-table appends pay no garbage for reaching the device in
// runs.
func TestSealWriteOutAllocGate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurements under -short")
	}
	fm := sfile.NewManager(ssd.New(simclock.New(), ssd.IntelP3600))
	pool := buffer.New(256)
	files := make([]*sfile.File, 4)
	for i := range files {
		files[i] = fm.Create(fmt.Sprintf("t%d", i), sfile.ClassTable)
	}
	nos := make([]uint64, sfile.ExtentPages)
	for i := range nos {
		fr, no, err := pool.NewPage(files[i%len(files)])
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(fr, true)
		nos[i] = no
	}
	writes := fm.Device().Stats().Writes
	got := testing.AllocsPerRun(100, func() {
		for i, no := range nos {
			f := files[i%len(files)]
			fr, err := pool.Get(f, no)
			if err != nil {
				t.Fatal(err)
			}
			pool.Unpin(fr, true)
			pool.Seal(f, no)
		}
	})
	if n := fm.Device().Stats().Writes - writes; n != 101*sfile.ExtentPages {
		t.Fatalf("%d device writes, want %d: a write-out per run", n, 101*sfile.ExtentPages)
	}
	if got != 0 {
		t.Errorf("seal write-out: %.2f allocs per %d pages, want 0", got, sfile.ExtentPages)
	}
}

// persistedReadAllocs gates the read path below P_N: five persisted
// partitions, each spanning the whole key range, behind a pool a quarter of
// their size, so that most reads fetch pages and many miss. Records are read
// where they lie in a reused page buffer: a Get allocates the value it
// returns and a Scan nothing that grows with the leaves it visits. That
// buffer comes from a sync.Pool, which the race detector empties at random
// on purpose, so these cases (and only these) say nothing under -race.
func persistedReadAllocs(t *testing.T, runs int) {
	if raceEnabled {
		t.Skip("the read path recycles its state through a sync.Pool, which -race drops at random")
	}
	ep := db.NewEngine(db.Config{BufferPages: 64})
	kvp, err := db.NewMVPBTKV(ep, "persisted", db.MVPBTKVOptions{BloomBits: 10})
	if err != nil {
		t.Fatal(err)
	}
	const keys, parts = 8000, 5
	pkeys := make([][]byte, keys)
	for i := range pkeys {
		pkeys[i] = []byte(fmt.Sprintf("user%08d", i))
	}
	pkey := func(i int) []byte { return pkeys[i%keys] }
	big := bytes.Repeat([]byte("v"), 200)
	for p := 0; p < parts; p++ {
		for i := p; i < keys; i += parts {
			if err := kvp.Put(pkey(i), big); err != nil {
				t.Fatal(err)
			}
		}
		if err := kvp.Tree().EvictPN(); err != nil {
			t.Fatal(err)
		}
	}
	if n, pages := kvp.Tree().NumPartitions(), ep.FM.LiveBytes()/storage.PageSize; n != parts || pages < 4*64 {
		t.Fatalf("%d partitions in %d pages: want %d and at least %d pages", n, pages, parts, 4*64)
	}
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		next += 997
		if _, ok, err := kvp.Get(pkey(next)); err != nil || !ok {
			t.Fatal(ok, err)
		}
	})
	if got > 1.5 {
		t.Errorf("KV Get from a persisted partition: %.2f allocs/op, want <=1 (the returned value copy)", got)
	}
	scan := func(limit int) float64 {
		return testing.AllocsPerRun(runs/10, func() {
			next += 997
			n := 0
			if err := kvp.Scan(pkey(next), limit, func(k, v []byte) bool { n++; return true }); err != nil || n == 0 {
				t.Fatal(n, err)
			}
		})
	}
	short, long := scan(50), scan(1000) // under one leaf of each partition, and about six
	if short > 0.5 || long > 0.5 {
		t.Errorf("KV Scan over %d partitions: %.2f allocs for 50 pairs, %.2f for 1000; want 0 for either", parts, short, long)
	}

	// The same below a table's non-unique index: the walk behind Tree.Lookup,
	// ScanAllMatter and Table.Lookup hands its visitor a record decoded into
	// the pooled read state, so the walk allocates nothing per read (a record
	// decoded into a local and passed by address would: one each), and the
	// table calls the index it dispatches to statically, so its caller's
	// callback stays on the stack (through an interface: two more).
	tbl, err := ep.NewTable("rows", db.HeapSIAS, db.IndexDef{
		Name: "k", Kind: db.IdxMVPBT, BloomBits: 10,
		Extract: func(row []byte) []byte { return row[:len(pkeys[0])] },
	})
	if err != nil {
		t.Fatal(err)
	}
	ix := tbl.Index("k")
	for p := 0; p < parts; p++ {
		tx := ep.Begin()
		for i := p; i < keys; i += parts {
			if _, _, err := tbl.Insert(tx, append(bytes.Clone(pkey(i)), big...)); err != nil {
				t.Fatal(err)
			}
		}
		ep.Commit(tx)
		if err := ix.MV().EvictPN(); err != nil {
			t.Fatal(err)
		}
	}
	if n := ix.MV().NumPartitions(); n != parts {
		t.Fatalf("%d index partitions, want %d", n, parts)
	}
	tx := ep.Begin()
	defer ep.Commit(tx)
	// Each read stops after a few entries, as a LIMIT would. Called directly:
	// through a func value the callbacks themselves would escape.
	gate := func(name string, want float64, read func()) {
		if got := testing.AllocsPerRun(runs, read); got > want+0.5 {
			t.Errorf("%s on persisted partitions: %.2f allocs/op, want %.0f", name, got, want)
		}
	}
	n := 0
	gate("Tree.Lookup", 0, func() {
		next, n = next+997, 0
		if err := ix.MV().Lookup(tx, pkey(next), func(index.Entry) bool { n++; return n < 20 }); err != nil || n == 0 {
			t.Fatal(n, err)
		}
	})
	gate("Tree.ScanAllMatter", 0, func() {
		next, n = next+997, 0
		if err := ix.MV().ScanAllMatter(pkey(next), nil, func(index.Entry) bool { n++; return n < 20 }); err != nil || n == 0 {
			t.Fatal(n, err)
		}
	})
	gate("Table.Lookup", 0, func() {
		next, n = next+997, 0
		if err := tbl.Lookup(tx, ix, pkey(next), false, func(db.RowRef) bool { n++; return n < 20 }); err != nil || n == 0 {
			t.Fatal(n, err)
		}
	})
}

// btreeKVAllocs gates the clustered B-Tree KV, Fig. 15a's baseline: a point
// read bounds its scan at index.PointBound on the stack and copies only the
// body it keeps. Measured: Get 1 (the value it returns), Put 5; 3 and 7 with
// the bound on the heap and ScanRaw copying every key and body.
func btreeKVAllocs(t *testing.T, runs int) {
	e := db.NewEngine(db.Config{})
	kv, err := db.NewBTreeKV(e, "alloc-btree")
	if err != nil {
		t.Fatal(err)
	}
	val := []byte("value-payload-0123456789")
	for i := 0; i < 2000; i++ {
		if err := kv.Put([]byte(fmt.Sprintf("user%08d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	key := []byte("user00000042")
	got := testing.AllocsPerRun(runs, func() {
		if _, ok, err := kv.Get(key); err != nil || !ok {
			t.Fatal(ok, err)
		}
	})
	if got > 1.5 {
		t.Errorf("BTreeKV Get: %.2f allocs/op, want <=1 (the returned value copy)", got)
	}
	got = testing.AllocsPerRun(runs, func() {
		if err := kv.Put(key, val); err != nil {
			t.Fatal(err)
		}
	})
	if got > 5.5 {
		t.Errorf("BTreeKV Put: %.2f allocs/op, want <=5", got)
	}
}

func newAllocKVT(t *testing.T, cfg db.Config) (*db.Engine, *db.MVPBTKV) {
	t.Helper()
	e := db.NewEngine(cfg)
	kv, err := db.NewMVPBTKV(e, "alloc", db.MVPBTKVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4096; i++ {
		if err := kv.Put([]byte(fmt.Sprintf("user%08d", i)), []byte("value-payload-0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	return e, kv
}
