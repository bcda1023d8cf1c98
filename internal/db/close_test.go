package db

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mvpbt/internal/sfile"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
	"mvpbt/internal/txn"
)

// TestEngineCloseConcurrent races Close from several goroutines: every
// call must return, and all calls must agree on the result.
func TestEngineCloseConcurrent(t *testing.T) {
	e := NewEngine(Config{
		BufferPages:          512,
		PartitionBufferBytes: 1 << 20,
	})
	tbl, err := e.NewTable("t", HeapHOT, IndexDef{
		Name: "pk", Kind: IdxMVPBT, Unique: true, Extract: keyExtract,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix := tbl.Indexes()[0]
	// Committed inserts and evictions, so Close has real state behind it.
	for i := 0; i < 200; i++ {
		tx := e.Begin()
		if _, _, err := tbl.Insert(tx, row(fmt.Sprintf("k%03d", i), "v")); err != nil {
			t.Fatal(err)
		}
		e.Commit(tx)
		if i%50 == 49 {
			if err := ix.MV().EvictPN(); err != nil {
				t.Fatal(err)
			}
		}
	}

	const callers = 4
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = e.Close()
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent Close deadlocked")
	}
	for i, err := range errs {
		if err != errs[0] {
			t.Fatalf("caller %d got %v, caller 0 got %v — Close is not idempotent", i, err, errs[0])
		}
	}
	if errs[0] != nil {
		t.Fatalf("Close = %v", errs[0])
	}
	// A straggler call after the race still returns the settled result.
	if err := e.Close(); err != nil {
		t.Fatalf("late Close = %v", err)
	}
}

// TestEngineCloseReportsFirstError pins the error contract: a failed flush
// of the WAL tail is Close's error, and a repeated Close returns that SAME
// error instead of retrying the shutdown.
func TestEngineCloseReportsFirstError(t *testing.T) {
	e, tbl, _ := walTable(t)
	insertOpen(t, e, tbl, "tail") // logged, not yet flushed
	e.Dev.ArmFault(ssd.FaultRule{Kind: ssd.FaultWriteErr, Class: int(sfile.ClassMeta), Sticky: true})
	first := e.Close()
	if !errors.Is(first, storage.ErrIOFault) {
		t.Fatalf("Close = %v, want the tail flush's error wrapping storage.ErrIOFault", first)
	}
	if err := e.Close(); err != first {
		t.Fatalf("second Close = %v, want the first call's %v", err, first)
	}
}

// TestEngineCloseAfterCrash: a failure stop already marked the engine
// closed, so Close must be a clean no-op: the crash semantics say nothing
// is flushed, and no error is reported.
func TestEngineCloseAfterCrash(t *testing.T) {
	e, tbl, _ := walTable(t)
	insertOpen(t, e, tbl, "tail")
	e.Crash()
	before := e.LogImage()
	if err := e.Close(); err != nil {
		t.Fatalf("Close after Crash = %v, want nil", err)
	}
	if after := e.LogImage(); !bytes.Equal(after, before) {
		t.Fatalf("Close after Crash flushed the log tail: %d -> %d bytes", len(before), len(after))
	}
}

// TestCloseAndCrashFenceTheLog: once Close or Crash has returned, no
// durable write may reach the device. Every call that would make a
// transaction durable — a commit, a batch commit, a prepare, a
// commit-resolving decision — must return ErrClosed and leave the log image
// byte for byte as the fence left it. group=true opens a batching window:
// the commit waits it out for a covering flush that cannot come any more.
func TestCloseAndCrashFenceTheLog(t *testing.T) {
	// Each case writes its rows before the fence and returns the durable
	// call to make after it.
	calls := []struct {
		name  string
		setup func(e *Engine, tbl *Table) func() error
	}{
		{"CommitDurable", func(e *Engine, tbl *Table) func() error {
			tx := insertOpen(t, e, tbl, "c")
			return func() error { return e.CommitDurable(tx) }
		}},
		// A batch: two transactions through one CommitDurable.
		{"CommitBatchDurable", func(e *Engine, tbl *Table) func() error {
			t1, t2 := insertOpen(t, e, tbl, "b1"), insertOpen(t, e, tbl, "b2")
			return func() error { return e.CommitDurable(t1, t2) }
		}},
		{"PrepareDurable", func(e *Engine, tbl *Table) func() error {
			tx := insertOpen(t, e, tbl, "p")
			return func() error { return e.PrepareDurable(tx, 7) }
		}},
		{"ResolveGroup", func(e *Engine, tbl *Table) func() error {
			prepareOne(t, e, tbl, "leg", "v", 8)
			return func() error { _, err := e.ResolveGroup(8, true); return err }
		}},
	}
	fences := []struct {
		name  string
		fence func(e *Engine)
	}{
		{"Close", func(e *Engine) { e.Close() }},
		{"Crash", (*Engine).Crash},
	}
	for _, c := range calls {
		for _, f := range fences {
			for _, group := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/group=%v", c.name, f.name, group), func(t *testing.T) {
					var cfg Config
					if group {
						cfg.GroupCommit.MaxDelay = 50 * time.Microsecond
					}
					e, tbl, _ := walTableKind(t, HeapSIAS, cfg)
					e.Commit(insertOpen(t, e, tbl, "base"))
					call := c.setup(e, tbl)
					f.fence(e)
					before := e.LogImage()
					if err := call(); !errors.Is(err, ErrClosed) {
						t.Fatalf("%s after %s = %v, want ErrClosed", c.name, f.name, err)
					}
					if after := e.LogImage(); !bytes.Equal(after, before) {
						t.Fatalf("%s after %s changed the log image: %d -> %d bytes", c.name, f.name, len(before), len(after))
					}
				})
			}
		}
	}
}

// insertOpen begins a transaction and inserts key into tbl, leaving it open.
func insertOpen(t *testing.T, e *Engine, tbl *Table, key string) *txn.Tx {
	t.Helper()
	tx := e.Begin()
	if _, _, err := tbl.Insert(tx, row(key, "v")); err != nil {
		t.Fatal(err)
	}
	return tx
}
