package db

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvpbt/internal/sfile"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
	"mvpbt/internal/wal"
)

// groupTable is walTable with batching window delay. At 0 every
// single-threaded commit flushes its own record; concurrency tests open a
// window so commits share flushes.
func groupTable(t *testing.T, delay time.Duration) (*Engine, *Table, *Index) {
	t.Helper()
	e := NewEngine(Config{
		BufferPages: 1024, PartitionBufferBytes: 1 << 22, EnableWAL: true,
		GroupCommit: GroupCommitConfig{MaxDelay: delay},
	})
	tbl, err := e.NewTable("accounts", HeapSIAS, IndexDef{
		Name: "pk", Kind: IdxMVPBT, Unique: true, BloomBits: 10, Extract: keyExtract,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, tbl, tbl.Indexes()[0]
}

// TestReadOnlyCommitLeavesWALByteIdentical: with lazy begin records a
// transaction that never logs a row operation must leave the log image
// byte-for-byte unchanged — no begin, no commit, no abort record, no flush.
func TestReadOnlyCommitLeavesWALByteIdentical(t *testing.T) {
	e, tbl, ix := walTable(t)
	tx := e.Begin()
	tbl.Insert(tx, row("a", "1"))
	e.Commit(tx)

	before := e.LogImage()
	flushes := e.WALStatsSnapshot().Flushes
	for i := 0; i < 5; i++ {
		r := e.Begin()
		if _, _, err := tbl.LookupOne(r, ix, []byte("a"), true); err != nil {
			t.Fatal(err)
		}
		if err := e.CommitDurable(r); err != nil {
			t.Fatal(err)
		}
	}
	ab := e.Begin()
	if _, _, err := tbl.LookupOne(ab, ix, []byte("a"), true); err != nil {
		t.Fatal(err)
	}
	e.Abort(ab)

	if !bytes.Equal(before, e.LogImage()) {
		t.Fatal("read-only transactions changed the log image")
	}
	s := e.WALStatsSnapshot()
	if s.Flushes != flushes {
		t.Fatalf("read-only commits flushed the log: %d -> %d", flushes, s.Flushes)
	}
	if s.ReadOnlyCommits != 5 {
		t.Fatalf("ReadOnlyCommits = %d, want 5", s.ReadOnlyCommits)
	}
}

// TestLazyBeginRecordPlacement checks the log grammar under lazy begins:
// each logged transaction's OpBegin appears immediately before its first
// row record even when transactions interleave, and the whole log stays
// recoverable.
func TestLazyBeginRecordPlacement(t *testing.T) {
	e, tbl, _ := walTable(t)
	t1 := e.Begin()
	t2 := e.Begin()
	tbl.Insert(t1, row("a", "1")) // t1's begin must precede this record
	tbl.Insert(t2, row("b", "2")) // t2's begin emitted here, after t1's op
	tbl.Insert(t1, row("c", "3")) // no second begin for t1
	e.Commit(t2)
	e.Commit(t1)

	type pr struct {
		op wal.Op
		id uint64
	}
	var p []pr
	r := wal.NewReaderFromBytes(e.LogImage())
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		p = append(p, pr{rec.Op, rec.TxID})
	}
	// Expected sequence: begin(t1) insert(t1) begin(t2) insert(t2)
	// insert(t1) commit(t2) commit(t1) — ids taken from the begin records
	// since they are assigned dynamically.
	if len(p) != 7 {
		t.Fatalf("log has %d records, want 7: %v", len(p), p)
	}
	id1, id2 := p[0].id, p[2].id
	if id1 == id2 {
		t.Fatalf("begin records share an id: %v", p)
	}
	wantSeq := []pr{
		{wal.OpBegin, id1}, {wal.OpInsert, id1},
		{wal.OpBegin, id2}, {wal.OpInsert, id2},
		{wal.OpInsert, id1},
		{wal.OpCommit, id2}, {wal.OpCommit, id1},
	}
	for i, w := range wantSeq {
		if p[i] != w {
			t.Fatalf("record %d = %v, want %v (full log %v)", i, p[i], w, p)
		}
	}

	// The interleaved lazy-begin log must recover to the committed state.
	re, rtbl, rix, applied := recoverInto(t, e.LogImage())
	if applied != 2 {
		t.Fatalf("applied = %d, want 2", applied)
	}
	state := snapshotState(t, re, rtbl, rix)
	if state["a"] != "1" || state["b"] != "2" || state["c"] != "3" {
		t.Fatalf("recovered state %v", state)
	}
}

// TestGroupCommitConcurrentDurable runs many concurrent committers through
// a batching window and checks that every commit is durable (recoverable)
// and that the group-commit counters add up.
func TestGroupCommitConcurrentDurable(t *testing.T) {
	e, tbl, _ := groupTable(t, 200*time.Microsecond)
	const clients, perClient = 8, 40
	var wg sync.WaitGroup
	var failed atomic.Int32
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				tx := e.Begin()
				if _, _, err := tbl.Insert(tx, row(fmt.Sprintf("k%02d-%03d", g, i), "v")); err != nil {
					t.Error(err)
					failed.Add(1)
					e.Abort(tx)
					return
				}
				if err := e.CommitDurable(tx); err != nil {
					t.Error(err)
					failed.Add(1)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatal("commit errors")
	}
	s := e.WALStatsSnapshot()
	if s.Group.Commits != clients*perClient {
		t.Fatalf("group commits = %d, want %d", s.Group.Commits, clients*perClient)
	}
	if s.Group.Batches <= 0 || s.Group.Batches > s.Group.Commits {
		t.Fatalf("batches = %d out of range (commits %d)", s.Group.Batches, s.Group.Commits)
	}

	re, rtbl, rix, applied := recoverInto(t, e.LogImage())
	if applied != clients*perClient {
		t.Fatalf("recovered %d transactions, want %d", applied, clients*perClient)
	}
	state := snapshotState(t, re, rtbl, rix)
	if len(state) != clients*perClient {
		t.Fatalf("recovered %d rows, want %d", len(state), clients*perClient)
	}
}

// TestGroupCommitCloseRace races committers against Close: every
// CommitDurable must return either nil (the commit is durable) or ErrClosed
// (the commit never happened), never anything in between. Run under -race
// this also exercises the close fence. Acknowledged commits are then
// verified durable by recovery.
func TestGroupCommitCloseRace(t *testing.T) {
	e, tbl, _ := groupTable(t, 0)
	const clients = 6
	var (
		wg    sync.WaitGroup
		acked [clients][]string
	)
	start := make(chan struct{})
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; ; i++ {
				key := fmt.Sprintf("c%02d-%04d", g, i)
				tx := e.Begin()
				if _, _, err := tbl.Insert(tx, row(key, "v")); err != nil {
					return // engine shutting down under us: fine
				}
				err := e.CommitDurable(tx)
				switch {
				case err == nil:
					acked[g] = append(acked[g], key)
				case errors.Is(err, ErrClosed):
					return
				default:
					t.Errorf("client %d: unexpected commit error %v", g, err)
					return
				}
			}
		}(g)
	}
	image := e.LogImage() // pre-close fallback; replaced after Close below
	close(start)
	time.Sleep(2 * time.Millisecond) // let commits get going
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	image = e.LogImage()

	re, rtbl, rix, _ := recoverInto(t, image)
	state := snapshotState(t, re, rtbl, rix)
	for g := range acked {
		for _, key := range acked[g] {
			if _, ok := state[key]; !ok {
				t.Fatalf("acknowledged commit %s not durable after Close", key)
			}
		}
	}
}

// TestCommitDurableAfterCloseErrClosed: a committer arriving strictly after
// Close must get the typed error and must not have committed anything.
func TestCommitDurableAfterCloseErrClosed(t *testing.T) {
	e, tbl, _ := groupTable(t, 0)
	tx := e.Begin()
	if _, _, err := tbl.Insert(tx, row("late", "v")); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.CommitDurable(tx); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit after close: %v, want ErrClosed", err)
	}
	re, rtbl, rix, _ := recoverInto(t, e.LogImage())
	if state := snapshotState(t, re, rtbl, rix); len(state) != 0 {
		t.Fatalf("fenced commit leaked into the log: %v", state)
	}
}

// TestCommitBatchDurableSingleFlush: a batch of writers plus a read-only
// transaction commits through one CommitDurable under exactly one flush,
// and all of it recovers.
func TestCommitBatchDurableSingleFlush(t *testing.T) {
	e, tbl, ix := walTable(t)
	t1 := e.Begin()
	tbl.Insert(t1, row("a", "1"))
	t2 := e.Begin()
	tbl.Insert(t2, row("b", "2"))
	ro := e.Begin()
	if _, _, err := tbl.LookupOne(ro, ix, []byte("a"), true); err != nil {
		t.Fatal(err)
	}

	flushes := e.WALStatsSnapshot().Flushes
	if err := e.CommitDurable(t1, t2, ro); err != nil {
		t.Fatal(err)
	}
	s := e.WALStatsSnapshot()
	if s.Flushes != flushes+1 {
		t.Fatalf("flushes %d -> %d, want exactly one more", flushes, s.Flushes)
	}
	if s.ReadOnlyCommits != 1 {
		t.Fatalf("ReadOnlyCommits = %d, want 1", s.ReadOnlyCommits)
	}
	re, rtbl, rix, applied := recoverInto(t, e.LogImage())
	if applied != 2 {
		t.Fatalf("applied %d, want 2", applied)
	}
	state := snapshotState(t, re, rtbl, rix)
	if state["a"] != "1" || state["b"] != "2" {
		t.Fatalf("recovered %v", state)
	}
}

// TestCommitBatchDurableFlushError: when a batch's shared flush fails, NONE
// of the batch is committed in memory (all in doubt).
func TestCommitBatchDurableFlushError(t *testing.T) {
	e, tbl, ix := walTable(t)
	t1 := e.Begin()
	tbl.Insert(t1, row("a", "1"))
	t2 := e.Begin()
	tbl.Insert(t2, row("b", "2"))

	id := e.Dev.ArmFault(ssd.FaultRule{
		Kind: ssd.FaultWriteErr, Class: int(sfile.ClassMeta), Sticky: true,
	})
	err := e.CommitDurable(t1, t2)
	if !errors.Is(err, storage.ErrIOFault) {
		t.Fatalf("batch commit with sticky WAL fault: %v", err)
	}
	e.Dev.DisarmFault(id)

	// Neither transaction may be visible to a fresh snapshot.
	r := e.Begin()
	defer e.Commit(r)
	for _, k := range []string{"a", "b"} {
		if got, found, err := tbl.LookupOne(r, ix, []byte(k), true); err != nil || found {
			t.Fatalf("in-doubt commit visible in memory: key %s got=%v err=%v", k, got, err)
		}
	}
}
