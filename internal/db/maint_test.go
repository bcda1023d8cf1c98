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
)

// Maintenance at engine level. Eviction, merge and P_N's GC all run inline
// on the writer that trips the threshold, so what these tests hold is what a
// second writer and a reader see meanwhile, and where a maintenance error
// comes out.

func key(i int) []byte { return []byte(fmt.Sprintf("k%06d", i)) }

// TestInlineMergeHoldsSecondWriter is the contention the served path has:
// two sessions of one shard, one of them inside an inline merge. Writer A's
// over-limit Put evicts P_N, the eviction trips MaxPartitions and A merges
// inline, holding the partition buffer's evictMu and the tree's bgMu
// (SetMergeTestHook parks it there). Writer B keeps inserting into the
// fresh P_N until ITS Put crosses the limit; that Put waits for evictMu,
// so P_N stays over the limit and B returns only after the merge ends — its
// keys evicted into a partition newer than the merged one. A reader during
// the hold finds every committed key exactly once. (Evictions during a merge, ROADMAP
// item 1(b), would change exactly these assertions.)
func TestInlineMergeHoldsSecondWriter(t *testing.T) {
	const limit = 16 << 10
	e := NewEngine(Config{BufferPages: 512, PartitionBufferBytes: limit})
	defer e.Close()
	kv, err := NewMVPBTKV(e, "mv", MVPBTKVOptions{BloomBits: 10, MaxPartitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	tree := kv.Tree()
	val := func(k []byte) []byte { return append(bytes.Repeat([]byte{'v'}, 48), k...) }

	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	var merging atomic.Bool
	tree.SetMergeTestHook(func() {
		once.Do(func() {
			merging.Store(true)
			close(held)
			<-release
		})
	})

	var aDone, bDone atomic.Int64 // Puts that returned, i.e. committed keys
	var wg sync.WaitGroup
	put := func(prefix string, done *atomic.Int64, stop func() bool) {
		defer wg.Done()
		for i := 0; !stop(); i++ {
			k := []byte(fmt.Sprintf("%s%05d", prefix, i))
			if err := kv.Put(k, val(k)); err != nil {
				t.Errorf("put %s: %v", k, err)
				return
			}
			done.Add(1)
		}
	}
	wg.Add(1)
	go put("a", &aDone, merging.Load) // A stops once its merge has run
	select {
	case <-held:
	case <-time.After(30 * time.Second):
		t.Fatal("writer A never reached an inline merge")
	}

	var released atomic.Bool
	wg.Add(1)
	go put("b", &bDone, released.Load) // B stops once its blocked Put is let go
	for deadline := time.Now().Add(30 * time.Second); e.PBuf.Used() <= limit; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("writer B never filled P_N past the limit")
		}
	}
	// B's over-limit insert and its wait for evictMu are one Put, so from
	// here until release neither count moves.
	nA, nB := aDone.Load(), bDone.Load()

	// scan counts how often a full scan delivers each key, checking values.
	scan := func(when string) map[string]int {
		seen := map[string]int{}
		if err := kv.Scan(nil, 1<<30, func(k, v []byte) bool {
			if !bytes.Equal(v, val(k)) {
				t.Errorf("key %s reads %q %s", k, v, when)
			}
			seen[string(k)]++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return seen
	}
	seen := scan("during the merge")
	for _, w := range []struct {
		prefix string
		n      int64
	}{{"a", nA}, {"b", nB}} {
		for i := int64(0); i < w.n; i++ {
			k := fmt.Sprintf("%s%05d", w.prefix, i)
			if seen[k] != 1 {
				t.Errorf("committed key %s seen %d times during the merge, want 1", k, seen[k])
			}
			if _, ok, err := kv.Get([]byte(k)); err != nil || !ok {
				t.Errorf("committed key %s: ok=%v err=%v during the merge", k, ok, err)
			}
		}
	}
	if int64(len(seen)) != nA+nB {
		t.Errorf("scan during the merge saw %d keys, want the %d committed", len(seen), nA+nB)
	}
	if aDone.Load() != nA || bDone.Load() != nB {
		t.Errorf("a Put returned while the merge was held: A %d → %d, B %d → %d", nA, aDone.Load(), nB, bDone.Load())
	}

	released.Store(true)
	close(release)
	wg.Wait()
	if aDone.Load() != nA+1 || bDone.Load() != nB+1 {
		t.Fatalf("after the merge A committed %d (want %d), B %d (want %d)", aDone.Load(), nA+1, bDone.Load(), nB+1)
	}
	// A's eviction loop went on after its merge and evicted B's keys: the
	// merged partition holds only A's, the one after it B's.
	parts := tree.Partitions()
	if len(parts) != 2 || tree.Stats().Merges != 1 {
		t.Fatalf("%d partitions after %d merges, want 2 after 1", len(parts), tree.Stats().Merges)
	}
	if parts[1].No <= parts[0].No || parts[0].MaxKey()[0] != 'a' || parts[1].MinKey()[0] != 'b' {
		t.Errorf("B's keys did not land in a newer partition: P%d [%s..%s], P%d [%s..%s]",
			parts[0].No, parts[0].MinKey(), parts[0].MaxKey(), parts[1].No, parts[1].MinKey(), parts[1].MaxKey())
	}
	if got, want := len(scan("after the merge")), aDone.Load()+bDone.Load(); int64(got) != want {
		t.Errorf("final scan saw %d keys, want %d", got, want)
	}
}

// TestInlineEvictionErrorSurfacesOnWriter: maintenance errors come out
// where they happen. An inline eviction whose partition write fails past
// storage.Retry's budget returns the typed device error from the Put or
// Insert that ran it and counts in PBuf.EvictErrors; nothing is kept for
// Close to report, and once the device answers the next eviction persists
// the P_N the failed one left in place.
func TestInlineEvictionErrorSurfacesOnWriter(t *testing.T) {
	val := string(bytes.Repeat([]byte{'v'}, 64))
	for _, c := range []struct {
		name  string
		setup func(t *testing.T, e *Engine) (write func(i int) error, count func() int)
	}{
		{"kv-put", func(t *testing.T, e *Engine) (func(int) error, func() int) {
			kv, err := NewMVPBTKV(e, "mv", MVPBTKVOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return func(i int) error { return kv.Put(key(i), []byte(val)) }, func() int {
				n := 0
				if err := kv.Scan(nil, 1<<30, func(k, v []byte) bool { n++; return true }); err != nil {
					t.Fatal(err)
				}
				return n
			}
		}},
		{"table-insert", func(t *testing.T, e *Engine) (func(int) error, func() int) {
			tbl, err := e.NewTable("t", HeapSIAS, IndexDef{Name: "pk", Kind: IdxMVPBT, Unique: true, Extract: keyExtract})
			if err != nil {
				t.Fatal(err)
			}
			return func(i int) error {
					tx := e.Begin()
					if _, _, err := tbl.Insert(tx, row(string(key(i)), val)); err != nil {
						e.Abort(tx)
						return err
					}
					e.Commit(tx)
					return nil
				}, func() int {
					tx := e.Begin()
					defer e.Commit(tx)
					n := 0
					if err := tbl.Scan(tx, tbl.Indexes()[0], nil, nil, false, func(RowRef) bool { n++; return true }); err != nil {
						t.Fatal(err)
					}
					return n
				}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine(Config{BufferPages: 256, PartitionBufferBytes: 16 << 10})
			write, count := c.setup(t, e)
			fault := e.Dev.ArmFault(ssd.FaultRule{Kind: ssd.FaultWriteErr, Class: int(sfile.ClassIndex), Sticky: true})
			committed := 0
			var err error
			for ; err == nil && committed < 10000; committed++ {
				err = write(committed)
			}
			committed-- // the failed write aborted
			if !errors.Is(err, storage.ErrIOFault) {
				t.Fatalf("write %d = %v, want the eviction's storage.ErrIOFault", committed, err)
			}
			if got := e.PBuf.EvictErrors(); got != 1 {
				t.Fatalf("EvictErrors = %d, want 1", got)
			}
			if e.PBuf.Evictions() != 0 {
				t.Fatalf("Evictions = %d with every index write failing", e.PBuf.Evictions())
			}

			e.Dev.DisarmFault(fault)
			for i := committed + 1; i <= committed+200; i++ { // past the limit again
				if err := write(i); err != nil {
					t.Fatalf("write %d after the fault cleared: %v", i, err)
				}
			}
			if e.PBuf.Evictions() == 0 {
				t.Fatal("no eviction after the fault cleared")
			}
			if got := count(); got != committed+200 {
				t.Fatalf("scan saw %d keys, want %d", got, committed+200)
			}
			if err := e.Close(); err != nil {
				t.Fatalf("Close = %v, want nil: the error was already returned to the writer", err)
			}
		})
	}
}
