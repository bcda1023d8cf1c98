package bench

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"mvpbt/internal/db"
	"mvpbt/internal/index"
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
	e, tbl := newAllocTable(b)
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

func newAllocTable(tb testing.TB) (*db.Engine, *db.Table) {
	tb.Helper()
	e := db.NewEngine(db.Config{EnableWAL: true})
	tbl, err := e.NewTable("alloc", db.HeapSIAS, db.IndexDef{
		Name: "pk", Kind: db.IdxMVPBT, Unique: true,
		Extract: func(row []byte) []byte { return row[:commitKeyLen] },
	})
	if err != nil {
		tb.Fatal(err)
	}
	return e, tbl
}

// TestHotPathAllocGate pins steady-state allocs/op for the write hot path.
// The limits carry a little slack over the measured values (0 / 1 / 3 / 3; see
// EXPERIMENTS.md) so incidental work — a tall skiplist tower, an amortized
// partition-buffer eviction — does not flake the gate, while a genuine +1
// allocation regression still trips it.
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

	_, kv := newAllocKVT(t, false)
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
	got = testing.AllocsPerRun(runs, func() {
		if err := kv.Put(key, val); err != nil {
			t.Fatal(err)
		}
	})
	if got > 3.5 {
		t.Errorf("KV Put: %.2f allocs/op, want <=3 (version record, key+value copy, skiplist node)", got)
	}

	_, kvw := newAllocKVT(t, true)
	got = testing.AllocsPerRun(runs, func() {
		if err := kvw.Put(key, val); err != nil {
			t.Fatal(err)
		}
	})
	if got > 3.5 {
		t.Errorf("KV Put with WAL: %.2f allocs/op, want <=3 (logging and flushing the put must add nothing to the unlogged path)", got)
	}

	t.Run("persisted", func(t *testing.T) { persistedReadAllocs(t, runs) })
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
	gate("Table.Lookup", 1, func() { // the cell ctxCheck keeps a context error in
		next, n = next+997, 0
		if err := tbl.Lookup(tx, ix, pkey(next), false, func(db.RowRef) bool { n++; return n < 20 }); err != nil || n == 0 {
			t.Fatal(n, err)
		}
	})
}

func newAllocKVT(t *testing.T, wal bool) (*db.Engine, *db.MVPBTKV) {
	t.Helper()
	e := db.NewEngine(db.Config{EnableWAL: wal})
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
